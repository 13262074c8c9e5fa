"""The DOP853 stepper behind numutil.dop853.

The explicit Runge-Kutta pair of order 8(5,3) by Dormand and Prince, with its
7th-degree dense output (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., Sec. II.10).  This is a transcription of
scipy.integrate's DOP853 and of the parts of scipy's driver around it that
the package needs (scipy's ``integrate/_ivp``, BSD licence): the same tableau
decimals, the same initial step, step-size control, error norm and dense
output, and the same t_eval bookkeeping, with the same arithmetic, operand
for operand, so that a solve returns the bits scipy's DOP853 returns, in t,
y and the number of right-hand-side calls.  The package solves at one
tolerance, which this module takes as both of scipy's rtol and atol.  It
makes fewer numpy calls to get there: the tableau is cast to the state's
dtype once per solve, where np.dot would cast a row on every call; the
stages take ndarray.dot, np.dot's routine without its dispatcher; each
array-by-scalar product (h, the tolerance and the dense output's 2) takes
its scalar as a 0-d array of the operand's dtype, the value and the ufunc
loop numpy gives a Python or numpy scalar, without the conversion numpy
makes of such a scalar on every call; the step's bookkeeping (t, h, the
direction, the stage nodes and the error norm) runs in Python floats, whose
arithmetic is np.float64's at a tenth of its cost; and the error norm is
np.linalg.norm's own fast path without its checks, with its roots by
math.sqrt, correctly rounded as np.sqrt is.  A step reuses the last one's
|y_new| as its |y|.  Both directions of time run on one path: the t_eval
nodes and the dense output's step ends are searched as direction * times,
which ascend either way (negation is exact).  The t_eval nodes are sampled
in one pass after the last step (sample_nodes), each through its own step's
dense output: the loop keeps a step's dense output only if the step holds
nodes, so a solve keeps at most min(steps, nodes) of them (all of them with
dense_output).  A terminal event is not rooted: the solve stops after the
step across which g falls through zero, and keeps that step's nodes up to
the first where g, on the node's state, is below zero.
Unlike scipy's driver, solve does not check its input: each solver checks
its own before it calls numutil.dop853, and none solves over a window of
length zero.  A NaN step size, from a NaN slope at the start, ends the solve
as one below the spacing of floats (status -1), where scipy's loop would try
it forever.
Importing scipy.integrate costs about 0.54 s and 48 MB (Python 3.11, scipy
1.17, 2 vCPU), more than a typical solve; this module needs numpy alone.
"""

import math

import numpy as np

from ._numbers import record

# step-size control: the factor from the error's asymptotics is multiplied by
# SAFETY and kept within [MIN_FACTOR, MAX_FACTOR]
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10

# the embedded error estimate is of order 7
ERROR_ESTIMATOR_ORDER = 7
ERROR_EXPONENT = -1 / (ERROR_ESTIMATOR_ORDER + 1)

MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred.",
            -1: "Required step size is less than spacing between numbers."}

# the tableau, in the decimals of Hairer's dop853.f as scipy writes them:
# stages 0-11 take a step, stage 12 is the new point's derivative and stages
# 13-15 serve the dense output only
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))

A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))

D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# the views scipy's DOP853 class takes of the tableau, in the same layout
_A = A[:N_STAGES, :N_STAGES]
_C = C[:N_STAGES]
# (stage, its row of A up to the stage, its node), for the step and for the
# dense output's extra stages; each node a Python float
_STAGES = [(s, a[:s], c) for s, (a, c) in enumerate(zip(_A[1:], _C[1:].tolist()), start=1)]
_EXTRA_STAGES = [(s, a[:s], c) for s, (a, c) in
                 enumerate(zip(A[N_STAGES + 1:], C[N_STAGES + 1:].tolist()),
                           start=N_STAGES + 1)]


class BudgetExceeded(Exception):
    """A solve asked for more right-hand-side calls than it was allowed;
    ``t`` is the time of the call that was refused."""

    def __init__(self, t):
        super().__init__(t)
        self.t = t


def _sum_squares(x):
    """The sum of |x_i|^2 of a 1-D float or complex x, as np.linalg.norm's
    own fast path sums it, operation for operation, without its checks."""
    if x.dtype.kind == "c":
        return x.real.dot(x.real) + x.imag.dot(x.imag)
    return x.dot(x)


def norm(x):
    """The RMS norm of the error estimates."""
    return np.sqrt(_sum_squares(x)) / x.size ** 0.5


def _norm_squared(x):
    """np.linalg.norm(x)**2, the root rounded and then squared, as scipy's
    error norm takes it, in Python floats: math.sqrt is correctly rounded as
    np.sqrt is, and both powers are the C library's pow.  A root past 1e154,
    inf or NaN is squared as numpy squares it, to inf or NaN with no
    OverflowError."""
    r = math.sqrt(_sum_squares(x))
    return r ** 2 if r < 1e154 else np.float64(r) ** 2


def select_initial_step(fun, t0, y0, t_bound, f0, direction, tol):
    """The first step size of Hairer, Norsett & Wanner, Sec. II.4, as scipy
    computes it: one extra call of fun, and never beyond t_bound."""
    interval_length = abs(t_bound - t0)
    scale = tol + np.abs(y0) * tol
    d0 = norm(y0 / scale)
    d1 = norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _horner(rows, x, y_old):
    """The dense output at x, as scipy's Dop853DenseOutput takes it: from
    zeros (0 + -0 is +0, as there), the rows of F, last first, each added
    and the sum times x or 1 - x in turn, then y_old.  One time or many."""
    y = np.zeros_like(y_old)
    x1 = 1 - x
    for i, f in enumerate(rows):
        y += f
        y *= x1 if i % 2 else x
    y += y_old
    return y


def sample_nodes(steps):
    """The nodes of a solve and y at them, shape (n, len(t)), from the
    (nodes, dense output) of each step that holds nodes, in the solve's
    order; a dense output is the step's (t_old, h, y_old, F).

    One pass of _horner over every node at once, each node through the
    elementwise operations, on the operands, of its step's dense output, x
    from its step's t_old and h.  A t_eval of float64 or integer times gets
    the bits of scipy's step by step sampling; a narrower float does not,
    since scipy subtracts the first step's t_old, a Python float, in that
    narrower type.
    """
    t = np.concatenate([nodes for nodes, _ in steps])
    # the F and y_old are read only now, after the loop: each step made them
    # as fresh arrays, which no later step writes
    t_old, h, y_old, F = zip(*[dense for _, dense in steps])
    idx = np.repeat(np.arange(len(steps)), [nodes.size for nodes, _ in steps])
    F = np.stack(F, axis=1)   # (row, step, n)
    x = ((t - np.array(t_old).take(idx)) / np.array(h).take(idx))[:, None]
    y_old = np.stack(y_old).take(idx, 0)
    return t, _horner((f.take(idx, 0) for f in F[::-1]), x, y_old).T


class DenseSolution:
    """y(t) over the whole solve from the dense outputs of its steps, which
    run between consecutive ``ts``.  A time on a step boundary takes the
    earlier step's, and a time outside the window the nearest end step's,
    as scipy's OdeSolution does."""

    def __init__(self, ts, steps, direction):
        self.keys = direction * np.asarray(ts)   # ascending either way
        self.direction = direction
        self.steps = steps

    def __call__(self, t):
        """y at one time t, shape (n,)."""
        t = np.asarray(t)
        ind = self.keys.searchsorted(self.direction * t, "left")
        t_old, h, y_old, F = self.steps[min(max(ind - 1, 0), len(self.steps) - 1)]
        return _horner(reversed(F), (t - t_old) / h, y_old)


class _Stepper:
    """The state of one solve between steps: time, state, derivative, the
    next step size and the stages of the last step."""

    def __init__(self, fun, t0, y0, t_bound, tol):
        self.fun = fun
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        # Python floats, as t0 and t_bound are (see the module docstring)
        self.direction = 1.0 if t_bound > t0 else -1.0
        self.f = fun(t0, y0)
        self.h_abs = float(select_initial_step(fun, t0, y0, t_bound, self.f, self.direction,
                                               tol))
        # the scalar operands as 0-d arrays (see the module docstring): |y|
        # and so the error scale are float64 for a complex state too
        self.dtype = y0.dtype
        self.tol = np.array(tol, dtype=float)
        self.two = np.array(2, dtype=y0.dtype)
        self.abs_y = np.abs(y0)
        K = self.K_extended = np.empty((N_STAGES_EXTENDED, y0.size), dtype=y0.dtype)
        self.K = K[:N_STAGES + 1]
        # the tableau as this solve uses it: each row with the stages it
        # weighs, K[:s].T, and cast to the state's dtype as np.dot would cast
        # it on every call (a real state keeps real rows), so that each dot
        # gets the same operands
        def row(a):
            return np.asarray(a, dtype=y0.dtype)

        self.stages = [(s, K[:s].T, row(a), c) for s, a, c in _STAGES]
        self.extra_stages = [(s, K[:s].T, row(a), c) for s, a, c in _EXTRA_STAGES]
        self.KB, self.B = K[:N_STAGES].T, row(B)
        self.KT = self.K.T
        self.E3, self.E5, self.D = row(E3), row(E5), row(D)
        self.t_old = self.y_old = self.h_previous = None
        self.n_accepted = self.n_rejected = 0
        self.min_step = math.inf

    def step(self):
        """Take one accepted step; False if the step size fell below ten
        spacings of floats at t, or is NaN."""
        t = self.t
        y = self.y
        direction = self.direction
        floor = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = floor if self.h_abs < floor else self.h_abs
        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if not h_abs >= floor:   # a NaN too (see the module docstring)
                return False
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = self.rk_step(t, y, h)
            abs_y_new = np.abs(y_new)
            scale = self.tol + np.maximum(self.abs_y, abs_y_new) * self.tol
            error_norm = self.estimate_error_norm(h_abs, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                self.min_step = min(self.min_step, h_abs)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                step_rejected = True
                self.n_rejected += 1
        self.n_accepted += 1
        self.h_previous = h
        self.t_old = t
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.abs_y = abs_y_new
        self.h_abs = h_abs
        self.f = f_new
        return True

    def rk_step(self, t, y, h):
        """One step of size h from (t, y), where self.f = fun(t, y): the new
        state and its derivative, the stages left in the rows of K."""
        fun, K = self.fun, self.K
        hs = np.array(h, dtype=self.dtype)
        K[0] = self.f
        for s, Ks, a, c in self.stages:
            dy = Ks.dot(a) * hs
            K[s] = fun(t + c * h, y + dy)
        y_new = y + hs * self.KB.dot(self.B)
        f_new = fun(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new

    def estimate_error_norm(self, h_abs, scale):
        """The error norm of a step of length h_abs: the 5th-order estimate,
        damped by the 3rd-order one, in units of scale."""
        err5 = self.KT.dot(self.E5) / scale
        err3 = self.KT.dot(self.E3) / scale
        err5_norm_2 = _norm_squared(err5)
        err3_norm_2 = _norm_squared(err3)
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = math.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * len(scale))
        # a denominator of 0, where 0.01 * err3_norm_2 underflows, is numpy's 0 / 0
        return h_abs * err5_norm_2 / denom if denom else math.nan

    def dense_output(self):
        """The last step's dense output, (t_old, h, y_old, F); three more
        calls of fun."""
        K = self.K_extended
        h = self.h_previous
        hs = np.array(h, dtype=self.dtype)
        for s, Ks, a, c in self.extra_stages:
            dy = Ks.dot(a) * hs
            K[s] = self.fun(self.t_old + c * h, self.y_old + dy)
        F = np.empty((INTERPOLATOR_POWER, self.y.size), dtype=self.y_old.dtype)
        f_old = K[0]
        delta_y = self.y - self.y_old
        F[0] = delta_y
        F[1] = hs * f_old - delta_y
        F[2] = self.two * delta_y - hs * (self.f + f_old)
        F[3:] = hs * self.D.dot(K)
        return self.t_old, h, self.y_old, F


@record
class Solution:
    """The outcome of solve.

    t, y: the t_eval nodes reached and the states there, shape (n, len(t));
    sol: the DenseSolution, if asked for; status: 0 at the window's end, 1
    at the event, -1 for a step size below the spacing of floats or NaN,
    with message the text scipy gives; nfev: right-hand-side calls, dense output
    included; n_accepted, n_rejected: steps taken and trial steps refused;
    min_step: the smallest step taken (the last one, cut at the window's
    end, included; inf if none); t_last: the time of the last
    right-hand-side call, where a failed solve stopped.
    """

    t: np.ndarray
    y: np.ndarray
    sol: DenseSolution | None
    status: int
    message: str
    nfev: int
    n_accepted: int
    n_rejected: int
    min_step: float
    t_last: float

    @property
    def success(self):
        return self.status >= 0


def solve(fun, t_span, y0, tol, t_eval, dense_output=False, event=None, *, max_nfev):
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1], from y0 (real
    or complex), bit for bit as scipy.integrate's driver does with
    method="DOP853", rtol = atol = tol and these t_eval, dense_output and
    event.

    event, if given, is a terminal event g(t, y) that falls through zero:
    the solve stops with status 1 after the first step whose g falls from
    >= 0 to <= 0, and keeps that step's nodes up to the first where g, on
    the node's state, is below zero.  scipy roots g on the step's
    interpolant and keeps the nodes up to the root: the same nodes, unless
    g changes sign more than once in the step or a node lies within the
    root's tolerance, 4 eps (1 + |t|), of it; and where the crossing step
    holds no node, 3 more calls of fun.  A call of fun past max_nfev raises
    BudgetExceeded.

    fun gets its time as a Python float at every call: at t0, as from scipy,
    and at the stage times, which scipy passes as np.float64 of the same
    value.  The result's min_step and t_last are np.float64.

    The input is the caller's to check, where scipy's driver checks it: t_span
    of nonzero length, y0 finite, and t_eval 1-D, inside t_span and sorted in
    the direction of the solve (empty for no output nodes).
    """
    t0, tf = map(float, t_span)
    t_eval = np.asarray(t_eval)

    y0 = np.asarray(y0)
    dtype = complex if np.issubdtype(y0.dtype, np.complexfloating) else float
    y0 = y0.astype(dtype, copy=False)

    nfev = 0
    t_last = t0
    dt = y0.dtype

    def counted(t, y):
        nonlocal nfev, t_last
        t_last = t
        if nfev == max_nfev:
            raise BudgetExceeded(t)
        nfev += 1
        f = fun(t, y)
        # np.asarray would return such an f itself
        return f if type(f) is np.ndarray and f.dtype is dt else np.asarray(f, dtype=dtype)

    stepper = _Stepper(counted, t0, y0, tf, tol)
    direction = stepper.direction
    keys = direction * t_eval   # the nodes ascend as keys either way
    t_eval_i = 0
    steps, dense_steps, ti = [], [], [t0]
    if event is not None:
        g = event(t0, y0)
    status = None
    while status is None:
        if not stepper.step():
            status = -1
            break
        if direction * (stepper.t - tf) >= 0:
            status = 0
        t = stepper.t
        dense = stepper.dense_output() if dense_output else None
        if dense_output:
            dense_steps.append(dense)

        if event is not None:
            g_new = event(t, stepper.y)
            if g >= 0 >= g_new:
                status = 1
            g = g_new

        # a node equal to t is taken in this step; the method skips
        # np.searchsorted's dispatcher, and bisect would need the nodes as a
        # list, 42 us at 2001 nodes
        t_eval_i_new = keys.searchsorted(direction * t, "right")
        n_step = t_eval_i_new - t_eval_i
        if n_step:
            if dense is None:
                dense = stepper.dense_output()
            steps.append((t_eval[t_eval_i:t_eval_i_new], dense))
            t_eval_i = t_eval_i_new
        if dense_output:
            ti.append(t)

    if steps:
        t, y = sample_nodes(steps)
    else:
        t, y = np.empty(0), np.empty((y0.size, 0), dtype)
    if status == 1:
        # the crossing step is the last: its nodes are the last n_step
        for i in range(t.size - n_step, t.size):
            if event(t[i], y[:, i]) < 0:
                t, y = t[:i], y[:, :i]
                break
    return Solution(t, y, DenseSolution(ti, dense_steps, direction) if dense_output else None,
                    status, MESSAGES[status], nfev, stepper.n_accepted,
                    stepper.n_rejected, np.float64(stepper.min_step), np.float64(t_last))
