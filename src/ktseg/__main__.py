import os
import sys

os.environ.setdefault("OMP_NUM_THREADS", "1")  # one BLAS thread unless set; before numpy loads

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
