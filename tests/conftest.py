import os

# One BLAS thread unless the environment says otherwise: the LMI engine's
# small dense systems run several times slower on two OpenBLAS threads, and
# their last digits depend on the thread count.  The variable is read when
# numpy loads, so it is set before the first import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import hypothesis  # noqa: E402
import numpy as np  # noqa: E402

np.seterr(all="warn")

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("ci")
