"""The base of the package's slotted records.

Value records are `collections.namedtuple` subclasses with empty
`__slots__`: value equality, hashing and a `Name(field=value, ...)` repr
come from the tuple, with no code generated when the module is imported.
A record that is equal by identity, fills a field on first use, keeps its
hash, or must not be a tuple (a tuple's `+` and `*` would concatenate and
repeat) is a `Record`, as `Graph`, `Poly` and `Ideal` are slotted classes.
"""

from __future__ import annotations


class Record:
    """A record whose fields are the `__slots__` of its class, each set once
    with `object.__setattr__` by the constructor or a first-use memo.

    Setting or deleting a field raises AttributeError.  The repr names the
    public fields, those not starting with an underscore, in slot order.
    Equality is identity unless a subclass defines it.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in type(self).__slots__
                           if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"
