"""Named numerical kernels written in the planner's DSL.

Each kernel is source text for :func:`repro.lang.parser.parse`, sized
so that one cold plan takes a fraction of a second.  ``KERNELS`` maps a
kernel's name to ``(source, reason)``: the reason is the alignment
feature the kernel exercises that the paper programs and the generator
families do not already cover at kernel scale.
"""

from __future__ import annotations

JACOBI5 = """
real U(34,34), W(34,34)
do t = 1, 4
  W(2:33,2:33) = U(1:32,2:33) + U(3:34,2:33) + U(2:33,1:32) + U(2:33,3:34)
  U(2:33,2:33) = W(2:33,2:33)
enddo
"""

RED_BLACK = """
real U(34,34)
do t = 1, 4
  U(2:32:2,2:33) = U(1:31:2,2:33) + U(3:33:2,2:33) + U(2:32:2,1:32) + U(2:32:2,3:34)
  U(3:33:2,2:33) = U(2:32:2,2:33) + U(4:34:2,2:33) + U(3:33:2,1:32) + U(3:33:2,3:34)
enddo
"""

RESTRICTION = """
real F(64,64), C(32,32)
C(1:32,1:32) = F(1:63:2,1:63:2) + F(2:64:2,1:63:2) + F(1:63:2,2:64:2) + F(2:64:2,2:64:2)
"""

CG_STEP = """
real A(32,32), x(32), r(32), p(32), q(32)
q(1:32) = sum(A * spread(p, dim=1, ncopies=32), dim=2)
x(1:32) = x(1:32) + 0.5 * p(1:32)
r(1:32) = r(1:32) - 0.5 * q(1:32)
p(1:32) = r(1:32) + 0.5 * p(1:32)
"""

FFT_BUTTERFLY = """
real X(64), Y(64)
Y(1:63:2) = X(1:63:2) + X(2:64:2)
Y(2:64:2) = X(1:63:2) - X(2:64:2)
X(1:61:4) = Y(1:61:4) + Y(3:63:4)
X(3:63:4) = Y(1:61:4) - Y(3:63:4)
Y(1:57:8) = X(1:57:8) + X(5:61:8)
Y(5:61:8) = X(1:57:8) - X(5:61:8)
"""

LU_WAVEFRONT = """
real A(32,32), L(32)
do k = 1, 31
  L(k+1:32) = A(k+1:32,k) * A(k+1:32,k)
  A(k+1:32,k+1) = A(k+1:32,k+1) - L(k+1:32)
  A(k,k+1:32) = A(k,k+1:32) - L(k+1:32)
enddo
"""

KERNELS: dict[str, tuple[str, str]] = {
    "jacobi5": (
        JACOBI5,
        "static offsets on both template axes: the 2-D stencil most "
        "data-parallel codes are built from",
    ),
    "red_black": (
        RED_BLACK,
        "stride-2 sections of one array at both parities: stride and "
        "offset labels must agree on a single array",
    ),
    "restriction": (
        RESTRICTION,
        "stride-2 map between a fine and a coarse grid of different "
        "extents: Example 2 in two dimensions",
    ),
    "cg_step": (
        CG_STEP,
        "matrix-vector product by spread and sum: replication and "
        "reduction in one statement, then vector updates",
    ),
    "fft_butterfly": (
        FFT_BUTTERFLY,
        "a different stride per butterfly stage (2, 4, 8): conflicting "
        "stride labels across statements",
    ),
    "lu_wavefront": (
        LU_WAVEFRONT,
        "k-dependent row and column sections that shrink each step: "
        "mobile offsets over variable-size objects (Section 4.3)",
    ),
}
