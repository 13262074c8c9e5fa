"""What the numpy-free layers share with the numerical modules.

The catalog's table and parameter constraints and the CLI's argument checks
run before numpy loads, so that an invocation that computes nothing never
pays for it; the definitions they have in common with specfun, numutil and
dynamics live here, on the standard library alone, with the record
decorator that defines the package's record classes.
"""

import math

# every float the package writes, CSV and JSON alike: 17 significant digits,
# enough to read the same double back
E16 = "%.16e"

# the smallest tolerance a solve accepts
MIN_TOL = 1e-13


def is_nonpositive_integer(z: complex) -> bool:
    """Whether z is 0, -1, -2, ... to a relative 1e-14: a pole of Gamma, and
    of a series whose lower parameter it is."""
    z = complex(z)
    if abs(z.imag) > 1e-14 or not math.isfinite(z.real):
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= 1e-14 * max(1.0, abs(z.real))


class default_factory:
    """A record field's default that is made anew for each instance, as in
    ``params: dict = default_factory(dict)``."""

    def __init__(self, make):
        self.make = make


def record(cls):
    """Make cls a frozen record of the fields its own annotations name, in
    order, each defaulting to its class attribute if it has one.

    cls gains __init__ (by position or keyword), __eq__ (records of one
    class with equal field tuples), __hash__ of the field tuple, __repr__ as
    ``Name(a=..., b=...)`` and a __setattr__ and __delattr__ that refuse.
    Instances keep their __dict__, so functools.cached_property works.  The
    methods are closures: dataclasses would compile them from source, and
    import inspect to do so, which took 7 to 9 ms of every CLI invocation
    on a 2-vCPU host.
    """
    # cls.__annotations__, not cls.__dict__: from Python 3.14 on (PEP 649) a
    # class namespace holds __annotate__, and the attribute evaluates it
    names = tuple(cls.__annotations__)
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    n, name = len(names), cls.__qualname__

    def values(self):
        d = self.__dict__
        return tuple([d[k] for k in names])

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{name}() takes {n} arguments but {len(args)} were given")
        d = self.__dict__
        d.update(zip(names, args))
        for k in names[len(args):]:
            if k in kwargs:
                d[k] = kwargs.pop(k)
            elif k in defaults:
                v = defaults[k]
                d[k] = v.make() if isinstance(v, default_factory) else v
            else:
                raise TypeError(f"{name}() missing argument {k!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected argument {next(iter(kwargs))!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        return f"{name}({', '.join(f'{k}={v!r}' for k, v in zip(names, values(self)))})"

    def __setattr__(self, k, v):
        raise AttributeError(f"cannot assign {k!r}: a {name} record is frozen")

    def __delattr__(self, k):
        raise AttributeError(f"cannot delete {k!r}: a {name} record is frozen")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls
