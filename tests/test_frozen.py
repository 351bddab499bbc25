"""The package's frozen-value decorator against dataclass(frozen=True) on
the same small classes."""

import dataclasses
import itertools

import pytest

from siltglue.frozen import frozen


def classes(decorate):
    @decorate
    class Empty:
        pass

    @decorate
    class Row:
        kind: str
        index: int
        point: object = None

    @decorate
    class Positive:
        value: int

        def __post_init__(self):
            if self.value < 1:
                raise ValueError("value starts at 1")

    @decorate
    class Cached:
        rows: int
        entries: tuple

        def __hash__(self):
            return 7

    @decorate
    class Left:
        index: int

    @decorate
    class Right:
        index: int

    return Empty, Row, Positive, Cached, Left, Right


def instances(decorate):
    Empty, Row, Positive, Cached, Left, Right = classes(decorate)
    return [Empty(), Empty(), Row("P", 3), Row(index=3, kind="P"),
            Row("S", 0, (1, 2)), Row("S", 0, point=(1, 2)), Row("Q", 3),
            Positive(3), Positive(value=3), Positive(4), Cached(2, (1, 2)),
            Cached(2, (1, 3)), Left(3), Left(index=3), Right(3), Right(4)]


DC = instances(dataclasses.dataclass(frozen=True))
OURS = instances(frozen)


def test_repr_is_the_dataclass_repr():
    assert [repr(x) for x in OURS] == [repr(x) for x in DC]
    assert repr(OURS[4]) == \
        "classes.<locals>.Row(kind='S', index=0, point=(1, 2))"


def test_equality_within_and_across_classes():
    pairs = list(itertools.product(range(len(DC)), repeat=2))
    assert [OURS[i] == OURS[j] for i, j in pairs] == \
        [DC[i] == DC[j] for i, j in pairs]
    assert [OURS[i] != OURS[j] for i, j in pairs] == \
        [DC[i] != DC[j] for i, j in pairs]
    left, right = OURS[12], OURS[14]
    assert left != right and left.__eq__(right) is NotImplemented
    assert left != 3 and left.__eq__((3,)) is NotImplemented


def test_hash_is_the_dataclass_hash():
    assert [hash(x) for x in OURS] == [hash(x) for x in DC]
    assert hash(OURS[10]) == hash(OURS[11]) == 7


def test_construction_errors_match():
    for decorate in (dataclasses.dataclass(frozen=True), frozen):
        Empty, Row, Positive, Cached, Left, Right = classes(decorate)
        with pytest.raises(ValueError, match="value starts at 1"):
            Positive(0)
        for bad in (lambda: Row("P"), lambda: Left(1, 2),
                    lambda: Left(value=1), lambda: Empty(1)):
            with pytest.raises(TypeError):
                bad()


@pytest.mark.parametrize("i", range(len(DC)))
def test_assignment_and_deletion_raise_attribute_error(i):
    texts = []
    for x in (DC[i], OURS[i]):
        before = dict(vars(x))
        for name in (*before, "other"):
            with pytest.raises(AttributeError) as assigned:
                setattr(x, name, 1)
            with pytest.raises(AttributeError) as deleted:
                delattr(x, name)
            texts.append((str(assigned.value), str(deleted.value)))
        assert vars(x) == before
    assert texts[:len(texts) // 2] == texts[len(texts) // 2:]


def test_instances_keep_a_dict_for_cached_attributes():
    Cached = classes(frozen)[3]
    x = Cached(2, (1, 2))
    object.__setattr__(x, "_hash", 5)
    assert x.__dict__ == {"rows": 2, "entries": (1, 2), "_hash": 5}
    assert x == Cached(2, (1, 2)) and repr(x) == repr(DC[10])
