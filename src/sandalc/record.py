"""Record classes: value types built from their annotations.

`@record` gives a class an `__init__`, `__eq__` and `__hash__` generated
from its fields in one `exec`, and a shared `__repr__`.  The fields are those
of its record base, then its own annotated names, in order; a field's value
in the class body is its default.  Records are equal when they are of one
class and their fields are equal, and hash as the tuple of their fields, so
a record holding a dict or list is unhashable.  Every record refuses
assignment and deletion of its fields; a dict or list field is still filled
in place.  Each class keeps its own fields in `__slots__`, so an instance has
no `__dict__` unless its class body declares `__slots__ = ("__dict__",)`.
`record` returns a new class built from the body with those slots, so a
record's methods must not use zero-argument `super()`.
"""

_MISSING = object()


class Hidden:
    """Default of a keyword-only field that eq, hash and repr leave out."""

    def __init__(self, default):
        self.default = default


def _repr(self):  # a loop, not a generator: one frame per level of nesting
    args = []
    for name in self.__record_keys__:
        args.append(f"{name}={getattr(self, name)!r}")
    return f"{type(self).__qualname__}({', '.join(args)})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls):
    """Class decorator: make `cls` a frozen record class."""
    fields = {**getattr(cls, "__record_fields__", {})}
    annotated = cls.__dict__.get("__annotations__", {})
    slots = (*cls.__dict__.get("__slots__", ()), *(n for n in annotated if n not in fields))
    for name in annotated:
        fields[name] = cls.__dict__.get(name, _MISSING)
    # Leave out the defaults, which would hide their slots, and the __dict__ and
    # __weakref__ descriptors of the class statement's class.
    skip = {*annotated, "__dict__", "__weakref__"}
    ns = {k: v for k, v in cls.__dict__.items() if k not in skip}
    ns.update(__slots__=slots, __qualname__=cls.__qualname__)
    cls = type(cls)(cls.__name__, cls.__bases__, ns)
    env, params, hidden, body = {}, [], [], ""
    for name, default in fields.items():
        env[f"_d_{name}"] = default.default if type(default) is Hidden else default
        env[f"_s_{name}"] = getattr(cls, name).__set__
        param = name if default is _MISSING else f"{name}=_d_{name}"
        (hidden if type(default) is Hidden else params).append(param)
        # Stored by its slot's own __set__, a 7-field Transition builds in 0.76 us
        # and holds 128 traced bytes; object.__setattr__ into an instance dict,
        # which looks each name up, took 1.13 us and 176, and reads cost the
        # same (best of 7 x 200k, CPython 3.11.7).
        body += f"  _s_{name}(self, {name})\n"
    keys = tuple(n for n, d in fields.items() if type(d) is not Hidden)
    mine, theirs = ("".join(f"{who}.{n}, " for n in keys) for who in ("self", "other"))
    exec(
        f"def __init__(self, {', '.join(params + ['*'] * bool(hidden) + hidden)}):\n"
        f"{body}  pass\n"
        "def __eq__(self, other):\n  if other.__class__ is self.__class__:\n"
        f"    return ({mine}) == ({theirs})\n  return NotImplemented\n"
        f"def __hash__(self):\n  return hash(({mine}))\n",
        env,
    )
    cls.__init__, cls.__eq__, cls.__hash__ = env["__init__"], env["__eq__"], env["__hash__"]
    cls.__record_fields__, cls.__record_keys__, cls.__repr__ = fields, keys, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj, **changes):
    """A copy of record `obj` with the given fields changed."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj.__record_fields__}, **changes})
