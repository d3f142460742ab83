"""Per-instance cached attributes for the frozen graph classes."""

from functools import cached_property


class cached_attribute(cached_property):
    """``cached_property`` storing through ``object.__setattr__``: on CPython
    3.11 the stock version's direct ``__dict__`` write (and lock) slows every
    later attribute read of the instance."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value
