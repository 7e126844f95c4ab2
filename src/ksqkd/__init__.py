"""Simulator and analysis toolkit for contextuality-protected QKD.

Modules:
    qcore     -- exact linear algebra for integer-amplitude ququart states
    ksset     -- the 18-vector KS set, colorability, minimum mismatch
    channels  -- depolarizing noise and its analytic error rate
    adversary -- classical ball attack and intercept-resend
    protocol  -- round generation, sifting, certification, key extraction
    cli       -- verify / analyze / simulate / sweep commands
    kernel    -- exact outcome tables and the vectorized NumPy round kernel
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
