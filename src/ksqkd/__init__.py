"""Simulator and analysis toolkit for contextuality-protected QKD.

Modules:
    qcore     -- exact integer arithmetic on integer-amplitude ququart states
    ksset     -- the 18-vector KS set, colorability, minimum mismatch
    channels  -- the depolarizing noise spec
    adversary -- ball and intercept-resend specs, exact intercept-resend
                 rates, the 1/9 certification threshold
    protocol  -- session runs, error statistics, certification, key extraction
    kernel    -- flat exact lookup tables and the vectorized NumPy round
                 kernel, driven by the session's adversary and noise specs
    cli       -- verify / color / mismatch / analyze / simulate / sweep /
                 intercept commands

Every validated record is declared as ``class X(Record, _XFields)``: a
``typing.NamedTuple`` of fields, and a body that holds only ``__slots__ =
()``, its ``_check`` and its methods.
"""

__version__ = "0.1.0"

__all__ = ["Record", "__version__"]


class Record:
    """Base of a validated ``typing.NamedTuple``: every way to build one
    runs its ``_check``, which raises ValueError for invalid fields."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`: construct through `__new__`'s checks.
        return cls(*iterable)
