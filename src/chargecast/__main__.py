"""Entry point of the ``chargecast`` command, also run as ``python -m chargecast``.

chargecast makes no BLAS call, yet the OpenBLAS that numpy loads starts a
worker thread that spin-waits on a second core. OpenBLAS reads ``OPENBLAS_NUM_THREADS``
only as numpy loads it, so ``main`` defaults it to 1 before it imports the
CLI, and with it numpy. A value already set wins. Library callers never run
this file, so their BLAS keeps its own settings.
"""

import os


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
