"""Settings of the test process.

numpy's OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when the library is
loaded: in this process, at the first test module's ``import numpy``,
which comes after this file.  Set to 1 here, the library starts no worker
thread, so this process runs one thread, as a ``tristep converge`` process
does, and a study that a test lets fork forks from such a process.  A test
that starts an interpreter whose OpenBLAS setting matters sets or drops the
variable itself.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
