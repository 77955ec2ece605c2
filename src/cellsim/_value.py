"""The base of cellsim's record types: plain slotted classes that run no
generated code, so that importing the package stays cheap."""

from operator import attrgetter


class Value:
    """An immutable value. A subclass names its fields in __slots__, in constructor order,
    then the slots derived from them, named once as the last: _derived = __slots__[n:]. Its
    __init__ hands the fields, then the derived values, to _freeze. The fields' tuple, held
    once as _key, serves equality (of the same type only), hashing, copy and pickle. repr
    shows _args by the names in _fields: _key by the field names, unless a type states both."""

    __slots__ = ("_key",)
    _derived, _args = (), property(attrgetter("_key"))

    def __init_subclass__(cls):  # _key's and the slots' own setters skip the refusing __setattr__
        slots = cls.__dict__.get("__slots__")
        if slots is None:  # a subclass that adds no slots keeps its base's
            return
        n = len(slots) - len(cls._derived)
        if slots[n:] != cls._derived:
            raise TypeError("%s._derived must name its last slots" % cls.__name__)
        if "_fields" not in cls.__dict__:
            cls._fields = slots[:n]
        cls._setters = Value._key.__set__, tuple(getattr(cls, name).__set__ for name in slots), n

    def _freeze(self, *values):
        set_key, setters, n = self._setters
        set_key(self, values[:n])  # the fields alone: values itself when nothing is derived
        for i, value in enumerate(values):  # an index, not a zip: a sixth faster
            setters[i](self, value)

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
                           ", ".join(map("%s=%r".__mod__, zip(self._fields, self._args))))

    def __reduce__(self):  # a copy is built anew from its fields, checked and derived again
        return type(self), self._key


class Record(Value):
    """A Value with assignable fields, so unhashable; _key reads its fields on each use."""

    __slots__ = ()
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = property(attrgetter(*cls.__slots__[:cls._setters[2]]))
