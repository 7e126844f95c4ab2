"""Simulator and analysis toolkit for contextuality-protected QKD.

Modules:
    qcore     -- exact integer arithmetic on integer-amplitude ququart states
    ksset     -- the 18-vector KS set, colorability, minimum mismatch
    channels  -- the depolarizing noise spec
    adversary -- ball and intercept-resend specs, exact intercept-resend rates
    protocol  -- session runs, error statistics, certification, key extraction
    kernel    -- exact outcome tables and the vectorized NumPy round kernel
    cli       -- verify / color / mismatch / analyze / simulate / sweep /
                 intercept commands
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
