"""Frozen value records: the one way the package declares a result class.

The standard library's data-class module imports ``inspect``, ``ast``,
``dis`` and ``tokenize``, about 10 ms of a cold command-line call, and
each frozen class it makes takes about 1 ms to create.
:func:`frozen_record` gives a class the frozen-record behaviour the
package needs, with one small generated ``__init__``, in about 50 us.
"""


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}"
                       for name in self._fields)
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen_record(cls):
    """Make ``cls`` a frozen value class of the fields annotated in its body.

    The fields, in annotation order, are the parameters of a generated
    ``__init__``, and a class attribute of the same name is that
    parameter's default.  ``__init__`` stores the arguments and then
    calls ``__post_init__``, if the class has one; it may validate them
    and store converted values with ``object.__setattr__``.  Assignment
    and deletion raise ``AttributeError``.  Two instances are equal, and
    hash alike, when they are of the same class and their fields are
    equal; the repr lists the fields in order.  ``cls._fields`` names
    the fields.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    fields = tuple(annotations)
    defaults = tuple(cls.__dict__[name] for name in fields
                     if name in cls.__dict__)
    required = fields[:len(fields) - len(defaults)]
    if any(name in cls.__dict__ for name in required):
        raise TypeError(f"{cls.__name__}: a field without a default "
                        f"follows one with a default")
    # object.__setattr__ passes the frozen __setattr__ by, and keeps the
    # fields in the instance's inline values (touching self.__dict__
    # would make a dict and slow every later attribute read)
    body = [f"_set(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = (f"def __init__(self, {', '.join(fields)}):\n    "
              + "\n    ".join(body or ["pass"]) + "\n")
    namespace = {"__name__": cls.__module__, "_set": object.__setattr__}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__annotations__ = {**annotations, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls._fields = fields
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
