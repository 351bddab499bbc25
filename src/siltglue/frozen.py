"""``@frozen``: ``dataclass(frozen=True)`` without importing ``dataclasses``
and ``inspect``, which cost a CLI call more than the package itself.  One
``exec`` per class writes ``__init__`` (class attributes are defaults,
``__post_init__`` runs last), the dataclass ``__repr__``, ``__eq__`` (same
class only) and ``__hash__`` on the field tuple; assigning or deleting an
attribute raises ``AttributeError``.  Methods the class defines are kept."""


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    fields = list(cls.__annotations__)
    params = "".join(f", {f}=_d[{f!r}]" if f in cls.__dict__ else f", {f}"
                     for f in fields)
    body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields) + (
        "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
    mine = "(" + "".join(f"self.{f}, " for f in fields) + ")"
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    ns = {"_set": object.__setattr__, "_d": cls.__dict__,
          "__setattr__": _setattr, "__delattr__": _delattr}
    exec(f"def __init__(self{params}):\n{body or '    pass'}\n"
         "def __repr__(self):\n"
         f"    return f'{{self.__class__.__qualname__}}({shown})'\n"
         "def __eq__(self, other):\n"
         "    if other.__class__ is not self.__class__:\n"
         "        return NotImplemented\n"
         f"    return {mine} == {mine.replace('self.', 'other.')}\n"
         f"def __hash__(self):\n    return hash({mine})\n", ns)
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
                 "__delattr__"):
        if name not in cls.__dict__:
            setattr(cls, name, ns[name])
    return cls
