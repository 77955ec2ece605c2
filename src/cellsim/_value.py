"""The base of cellsim's record types: plain slotted classes that run no
generated code, so that importing the package stays cheap."""


class Value:
    """An immutable value. A subclass names its fields in __slots__, in constructor
    order, and its __init__ hands them to _freeze; their tuple, held once as _key,
    serves equality (of the same type only), hashing, repr, copy and pickle."""

    __slots__ = ("_key",)

    def __init_subclass__(cls):  # _key's and the slots' own setters skip the refusing __setattr__
        cls._setters = Value._key.__set__, tuple(getattr(cls, n).__set__ for n in cls.__slots__)

    def _freeze(self, *fields):
        set_key, setters = self._setters
        set_key(self, fields)
        for setter, value in zip(setters, fields):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join(map("%s=%r".__mod__, zip(self.__slots__, self._key))))

    def __reduce__(self):  # a copy is built anew from its fields, checked and derived again
        return type(self), self._key


class Record(Value):
    """A Value with assignable fields, so unhashable; its class states _key as a property."""

    __slots__ = ()
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
