"""Config ranges. A config number declares its interval in its annotation,
as in `lr: Annotated[float, "(0, 1]"]` (on a list it bounds the length),
and a choice field is a `Literal` of its values. A config dataclass checks
both with `__post_init__ = check_ranges`."""

from functools import cache
from typing import Annotated, Literal, get_args, get_origin, get_type_hints


@cache
def _declared(cls: type) -> tuple:
    """(name, interval text or Literal choices) of each field of `cls` that
    declares a range."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((name, hint.__metadata__[0] if get_origin(hint) is Annotated
                  else get_args(hint)) for name, hint in hints.items()
                 if get_origin(hint) in (Annotated, Literal))


def check_ranges(obj) -> None:
    """A ValueError naming the first field of the dataclass `obj` outside
    its declared range; NaN is outside every interval."""
    for name, allowed in _declared(type(obj)):
        value = getattr(obj, name)
        x = len(value) if type(value) is list else value
        if type(allowed) is tuple:
            inside = x in allowed
        else:
            lo, hi = (float(bound) for bound in allowed[1:-1].split(","))
            inside = ((lo <= x if allowed[0] == "[" else lo < x)
                      and (x <= hi if allowed[-1] == "]" else x < hi))
        if not inside:
            raise ValueError(f"{name} must be in {allowed}, got {value!r}")
