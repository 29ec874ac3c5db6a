"""Fixed reference job that the end-to-end wall time is expressed in.

    python3 perfbench/reference.py

It uses nothing from `ebmvar`, so no change to the program moves it.  What
it does mirrors what each CLI command pays: a fresh interpreter that imports
numpy and scipy, a few dense LU factorisations on numpy's default BLAS
threads, sparse LU factorisations of a 2-D Laplacian, and a plain Python
loop.  `run.py` times it before every pass and after the last one, so a
slower or faster host moves it and the passes alike.
"""

import numpy as np
import scipy.linalg as sl
import scipy.sparse as sp
import scipy.sparse.linalg as spl

a = np.random.default_rng(0).standard_normal((400, 400))
for _ in range(10):
    sl.lu_factor(a)

n = 70
T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
L = (sp.kron(sp.eye(n), T) + sp.kron(T, sp.eye(n))).tocsc()
for _ in range(3):
    spl.splu(L)

s = 0
for i in range(1_500_000):
    s += i * i
