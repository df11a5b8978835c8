"""Source text of the kernels generated for each stepper.

`CompiledModel` (ssm.compiled) holds a model's symbols and the source
blocks of its intermediate quantities (propensities, drift, volatilities,
Jacobian nonzeros).  The functions here assemble from them the source of the
kernels that run every substep of one observation interval, which
`CompiledModel` compiles on first use:

    ode_source      RK4 over the full state, for one state on Python
                    floats or a batch laid out (nx, J) on arrays
    moments_source  the moment equations of the moment filter, and RK4
                    over [mean, upper triangle of covariance] around them
    update_source   the moment filter's update by one stream, in that
                    layout, on Python floats
    sde_source      Euler-Maruyama over a batch laid out as (nx, J)
    jump_source     the jump process of one state, event by event, for
                    Python floats: each column of a batch in turn

Element by element, each kernel takes the operations of one substep (one
event) at a time in numpy in the same order, so its results are those bit
for bit where the math functions agree.  Only those steppers need this
module, so `CompiledModel` imports it on first use.  The Poisson
stepper's slice kernel, which writes each propensity into a row of one
buffer as the sde kernel does (`expr.to_python_into`), is written beside
the stepper (`simulate.psr_source`), so a process that steps psr alone
never loads this module.
"""

from ssm import expr as ex
from ssm.compiled import ODE_WHERE, combine, param_local
from ssm.observe import VARIANCE_FLOOR


def accumulate(out, first, pairs):
    """Statements writing `first` plus a signed integer combination of
    (coefficient, source) pairs into the array `out`, operation by
    operation in the order of `combine`."""
    if not pairs:
        return [f"    {out}[...] = {first}"]
    lines = []
    for coef, term in pairs:
        op = "subtract" if coef == -1 else "add"
        if coef not in (1, -1):
            term = f"({coef})*{term}"
        lines.append(f"    {op}({first}, {term}, out={out})")
        first = out
    return lines


def param_args(cm):
    """Source of every parameter's value as arguments after t, in
    declaration order: `_kernel_source` with `params` false reads them so."""
    return "".join(f", {param_local(p.name)}" for p in cm.spec.parameters)


def rk4_source(cm, name, deriv, size, settle):
    """Source of `name(y, t, h, n, p)`: n classic RK4 substeps of length h
    from time t over the locals _y0.._y{size-1}, unpacked from y, with the
    four stages written out around `deriv(y, t, ...)`, which returns a
    tuple and takes the parameter values (`param_args`), bound once per
    call.  The arithmetic is that of y + h/6 (k1 + 2 k2 + 2 k3 + k4) on
    arrays.  The `settle` lines run on the locals after each substep; the
    result is their tuple."""
    y = [f"_y{i}" for i in range(size)]
    args = param_args(cm)

    def stage(k, values, t):
        ks = ", ".join(f"_k{k}_{i}" for i in range(size))
        return f"        {ks}, = {deriv}(({', '.join(values)},), {t}{args})"

    lines = [f"def {name}(y, t, h, n, p):"]
    cm._prologue(lines, {p.name for p in cm.spec.parameters})
    lines += [
        f"    {', '.join(y)}, = y",
        "    _hh = 0.5*h",
        "    _h6 = h/6.0",
        "    for _ in range(n):",
        stage(1, y, "t"),
        stage(2, [f"{v} + _hh*_k1_{i}" for i, v in enumerate(y)], "t + _hh"),
        stage(3, [f"{v} + _hh*_k2_{i}" for i, v in enumerate(y)], "t + _hh"),
        stage(4, [f"{v} + h*_k3_{i}" for i, v in enumerate(y)], "t + h"),
    ]
    lines += [f"        {v} = {v} + _h6*(_k1_{i} + 2.0*_k2_{i} + 2.0*_k3_{i}"
              f" + _k4_{i})" for i, v in enumerate(y)]
    lines += settle
    lines += ["        t = t + h", f"    return ({', '.join(y)},)"]
    return "\n".join(lines) + "\n"


def _floored(cm):
    """State columns with a floor at zero: compartments, accumulators."""
    return [i for i in range(cm.nx) if cm.floor[i] == 0.0]


def ode_source(cm, batch):
    """Source of `ode(y, t, h, n, p)`, RK4 over the drift of the full
    state.  After each substep the kernel for one state raises DomainError
    on a non-finite state or on one below its floor by more than 1e-6 of
    its largest magnitude (at least 1), then clamps at the floor; the batch
    kernel leaves that to `settle` on its columns and `floor`."""
    deriv = cm._kernel_source(
        f"def deriv(x, t{param_args(cm)}):", ("rates", "drift"),
        [f"    return ({', '.join(f'_d{i}' for i in range(cm.nx))},)"],
        unpack="x", params=False)
    ys = ", ".join(f"_y{i}" for i in range(cm.nx))
    if batch:
        return deriv + rk4_source(cm, "ode", "deriv", cm.nx,
                                  [f"        {ys}, = settle(({ys},), floor)"])
    finite = " and ".join(f"-inf < _y{i} < inf" for i in range(cm.nx))
    settle = [f"        if not ({finite}):",
              f"            raise DomainError('non-finite state {ODE_WHERE}')"]
    floored = _floored(cm)
    if floored:
        scale = ", ".join(f"abs(_y{i})" for i in range(cm.nx))
        below = " or ".join(f"_y{i} < _tol" for i in floored)
        settle += [f"        _tol = -1e-6*max(1.0, {scale})",
                   f"        if {below}:",
                   "            raise DomainError("
                   f"'negative population {ODE_WHERE}')"]
        # numpy's maximum(-0.0, 0.0) is 0.0
        settle += [f"        _y{i} = 0.0 if _y{i} <= 0.0 else _y{i}"
                   for i in floored]
    return deriv + rk4_source(cm, "ode", "deriv", cm.nx, settle)


def moments_source(cm):
    """Source of `moments(y, t, p) -> dy` for one state's moment equations
    and of `interval(y, t, h, n, p)`, RK4 around them that clamps the mean
    at the floor after each substep; both bind the parameter values once
    and pass them to `_moments(y, t, ...)`, the equations themselves.

    y = [m, upper triangle of C], in the row-major order of `tri_index`;
    dy = [drift, upper triangle of dC] with
    dC = J C + C J' + S diag(a+) S' + env + vol^2, written over the
    Jacobian's nonzeros only.
    """
    S = cm.stoich_full

    def c(a, b):
        return f"_c{min(a, b)}_{max(a, b)}"

    row_nz = {}
    for i, j in cm.jac_index:
        row_nz.setdefault(i, []).append(j)
    used = [k for k in range(cm.n_react) if S[:, k].any()]
    body = [f"    _ap{k} = 0.0 if _a{k} < 0.0 else _a{k}" for k in used]
    env = {}  # (group, column) -> local
    for g_i, (sd_name, members) in enumerate(cm.noise_groups):
        for i in range(cm.nx):
            pairs = [(int(S[i, k]), f"_ap{k}") for k in members if S[i, k]]
            if pairs:
                env[g_i, i] = f"_e{g_i}_{i}"
                body.append(f"    _e{g_i}_{i} = {param_local(sd_name)}"
                            f"*({combine(pairs)})")
    outs = [f"_d{i}" for i in range(cm.nx)]
    for i, j in zip(*cm.tri_index):
        i, j = int(i), int(j)
        jc = [f"_j{i}_{l}*{c(l, j)}" for l in row_nz.get(i, ())]
        if i == j:
            terms = [(1, f"2.0*({' + '.join(jc)})")] if jc else []
        else:
            jc += [f"{c(i, l)}*_j{j}_{l}" for l in row_nz.get(j, ())]
            terms = [(1, t) for t in jc]
        terms += [(int(S[i, k] * S[j, k]), f"_ap{k}") for k in used
                  if S[i, k] and S[j, k]]
        terms += [(1, f"{env[g_i, i]}*{env[g_i, j]}")
                  for g_i in range(len(cm.noise_groups))
                  if (g_i, i) in env and (g_i, j) in env]
        if i == j and cm.n_comp <= i < cm.n_comp + cm.n_diff:
            v = f"_v{i - cm.n_comp}"
            terms.append((1, f"{v}*{v}"))
        body.append(f"    _dc{i}_{j} = {combine(terms) if terms else '0.0'}")
        outs.append(f"_dc{i}_{j}")
    body.append(f"    return ({', '.join(outs)},)")
    args = param_args(cm)
    src = cm._kernel_source(
        f"def _moments(y, t{args}):", ("rates", "drift", "vols", "jac"),
        body, unpack="y", extra=[f"_c{i}_{j}" for i, j in zip(*cm.tri_index)],
        needed={sd for sd, _ in cm.noise_groups}, params=False)
    lines = ["def moments(y, t, p):"]
    cm._prologue(lines, {p.name for p in cm.spec.parameters})
    lines.append(f"    return _moments(y, t{args})")
    return src + "\n".join(lines) + "\n" + rk4_source(
        cm, "interval", "_moments", len(outs),
        [f"        _y{i} = 0.0 if _y{i} <= 0.0 else _y{i}"
         for i in _floored(cm)])


def update_source(cm):
    """Source of `update{i}(y, v, t, p)` per observation stream i, the
    moment filter's update of y = [m, upper triangle of C] (the layout of
    `moments_source`) by the stream's value v, and of `positive(y)`.

    The stream's parts and gradient g come from `obs{i}` at m, the law's
    mean and variance from `law_moments` (`observe.stream_moments`).  The
    innovation variance s = g'C g + variance is floored at one count, as
    counts sit on a unit grid and a predictive density narrower than one
    bin would overstate its mass.  With P = C g over the gradient's
    nonzero columns, k = P/s and e = v - mean, m becomes m + k e with the
    compartments clipped at zero and C becomes C - k P', the Joseph form
    at the floored s.  Returns None where s is not finite, else the new y,
    the term -(log(2 pi s) + e^2/s)/2 and the flags (s floored, variance
    floored, mean clipped, `positive` of the new y).  `positive(y)` runs
    Cholesky on C and says whether every pivot was positive and finite.
    """
    def c(a, b):
        return f"_c{min(a, b)}_{max(a, b)}"

    def reduced(i, j):
        # C[i, j] less the products of the Cholesky rows i and j so far
        return " - ".join([c(i, j), *(f"_l{i}_{k}*_l{j}_{k}"
                                      for k in range(j))])

    n = cm.nx
    pairs = [(int(i), int(j)) for i, j in zip(*cm.tri_index)]
    cs = ", ".join(c(i, j) for i, j in pairs)
    lines = ["def positive(y):", f"    {'_, ' * n}{cs}, = y"]
    for j in range(n):
        lines += [f"    _d = {reduced(j, j)}", "    if not 0.0 < _d < inf:",
                  "        return False"]
        if j < n - 1:
            lines.append("    _r = sqrt(_d)")
        lines += [f"    _l{i}_{j} = ({reduced(i, j)})/_r"
                  for i in range(j + 1, n)]
    lines.append("    return True")
    ms = ", ".join(f"_m{i}" for i in range(n))
    clipped = " or ".join(f"_m{i} < 0.0" for i in range(cm.n_comp))
    for s_i, o in enumerate(cm.observations):
        gs = [(f"_g{k}", col) for k, col in enumerate(o.grad_cols)]
        lines += [f"def update{s_i}(y, v, t, p):", f"    {ms}, {cs}, = y",
                  f"    *_parts, {''.join(f'{g}, ' for g, _ in gs)}= "
                  f"obs{s_i}(({ms},), t, p)",
                  f"    _mean, _var = law_moments({o.kind!r}, _parts)"]
        lines += [f"    _P{i} = "
                  + (" + ".join(f"{c(i, col)}*{g}" for g, col in gs) or "0.0")
                  for i in range(n)]
        h = " + ".join(f"{g}*_P{col}" for g, col in gs) or "0.0"
        lines += [f"    _s = {h} + _var", "    if not -inf < _s < inf:",
                  "        return None", "    _floored = _s < 1.0",
                  "    if _floored:", "        _s = 1.0", "    _e = v - _mean"]
        lines += [f"    _k{i} = _P{i}/_s" for i in range(n)]
        lines += [f"    _m{i} = _m{i} + _k{i}*_e" for i in range(n)]
        lines.append(f"    _clipped = {clipped or 'False'}")
        lines += [f"    _m{i} = 0.0 if _m{i} <= 0.0 else _m{i}"
                  for i in range(cm.n_comp)]
        new_c = ", ".join(f"{c(i, j)} - _k{i}*_P{j}" for i, j in pairs)
        lines += [f"    _y = ({ms}, {new_c},)",
                  "    return _y, -0.5*(log(6.283185307179586*_s) + _e*_e/_s), "
                  f"(_floored, _var == {VARIANCE_FLOOR!r}, _clipped, "
                  "positive(_y))"]
    return "\n".join(lines) + "\n"


def sde_source(cm):
    """Source of `sde(x, t, dt, n, p, draw, work)`: n Euler-Maruyama
    substeps of length dt from time t, in place on a batch x laid out as
    (nx, J), one row per state column.  `work` is the scratch for x's
    width that `CompiledModel.sde` keeps (`compiled._sde_work`): buffers
    and views of their rows.  A call writes every buffer before it reads
    it and returns none of them, so one `work` serves every call at its
    width.  A call still makes the normals' array and, per substep, the
    noise term of each noise group's member reaction.

    The interval's standard normals xi come from one call draw((n, K, J)),
    made once the first substep's propensities are formed: per substep,
    one row per reaction, then per noise group, then per driven parameter.
    On a static model (`CompiledModel.static`) a finite batch whose
    propensities are all exactly zero, in every row, is a fixed point:
    the kernel clamps it at zero, which turns -0.0 into 0.0 as the first
    substep's clamp would, and returns without drawing.  Every increment
    would be dt*0 plus a normal or a noise term times a zero propensity,
    ±0 (a noise group's term counts as zero whatever its sd), so the
    substeps would leave the clamped state as it is.
    Each reaction's increment dt*a + sqrt(dt)*(sqrt(a+)*xi + sd*eta*a+) is
    formed for all reactions at once, in the rows of one buffer, and added
    to every row of the state it touches.  The new state is checked for
    finiteness, all rows at once by one count of its finite entries,
    before it is clamped at the floor.
    Returns n, or the index of the first substep whose new state was not
    finite; x then holds the state before that substep.
    """
    S = cm.stoich_full
    state_names = set(cm.state_names)
    loop = []
    # each propensity goes into its row of _A; where the formula reads the
    # state, its operations write there directly
    for k, tree in enumerate(cm._prop_exprs):
        loop += ex.to_python_into(tree, cm._resolve, f"_a{k}", state_names)
    loop.append("    if _n == 0:")
    if cm.static:
        loop += ["        if not count_nonzero(_A) and isfinite(x).all():",
                 "            maximum(x, 0.0, out=x)",
                 "            return n"]
    loop.append(f"        xi = draw((n, "
                f"{cm.n_react + len(cm.noise_groups) + cm.n_diff}, "
                f"x.shape[1]))")
    loop += cm._blocks["vols"][0]
    # driven rows only: compartment and accumulator rows come from the
    # reaction increments
    loop += cm._blocks["driven"][0]
    if cm.n_react:
        loop += ["    maximum(_A, zero, out=_AP)",
                 "    sqrt(_AP, out=_Q)",
                 "    multiply(_Q, _sq, out=_Q)",
                 f"    multiply(_Q, xi[_n, :{cm.n_react}], out=_Q)",
                 "    multiply(_A, dt, out=_I)",
                 "    add(_I, _Q, out=_I)"]
    for g_i, (sd_name, members) in enumerate(cm.noise_groups):
        loop.append(f"    _w{g_i} = _sq*{param_local(sd_name)}"
                    f"*xi[_n, {cm.n_react + g_i}]")
        loop += [f"    add(_i{k}, _w{g_i}*_ap{k}, out=_i{k})" for k in members]
    groups_end = cm.n_react + len(cm.noise_groups)
    for i in range(cm.nx):
        if cm.n_comp <= i < cm.n_comp + cm.n_diff:
            d_i = i - cm.n_comp
            pairs = [(1, f"dt*_d{i}"),
                     (1, f"_sq*_v{d_i}*xi[_n, {groups_end + d_i}]")]
        else:
            pairs = [(int(S[i, k]), f"_i{k}")
                     for k in range(cm.n_react) if S[i, k]]
        loop += accumulate(f"_o{i}", f"_x{i}", pairs)
    # without driven rows every row is clamped at zero, a scalar floor
    floor = "floor" if cm.n_diff else "zero"
    loop += ["    isfinite(_new, out=_ok)",
             "    if count_nonzero(_ok) < _ok.size:",
             "        return _n",
             f"    maximum(_new, {floor}, out=x)",
             "    t = t + dt"]

    needed = ({sd for sd, _ in cm.noise_groups}
              | cm._blocks["driven"][1]
              | cm._blocks["rates"][1] | cm._blocks["vols"][1])
    states = needed & state_names
    head = []
    cm._prologue(head, states, read="_x{}")
    lines = ["def sde(x, t, dt, n, p, draw, work):"]
    cm._prologue(lines, needed - states)
    # the scratch (`compiled._sde_work`): the buffers, then the views of
    # the rows that are locals
    views = "".join(f"{prefix}{i}, " for prefix, count in (
        ("_o", cm.nx), ("_a", cm.n_react), ("_ap", cm.n_react),
        ("_i", cm.n_react)) for i in range(count))
    lines += ["    _sq = asarray(scalar_sqrt(dt))",
              "    dt = asarray(dt)",
              f"    _new, _ok, _A, _AP, _Q, _I, {views}= work",
              f"    {''.join(f'_x{i}, ' for i in range(cm.nx))}= x",
              "    for _n in range(n):"]
    lines += ["    " + line for line in head + loop]
    lines.append("    return n")
    return "\n".join(lines) + "\n"


def jump_source(cm):
    """Source of `jump(x, t, t1, dt_max, p, exps, unis, normals)`: the
    Markov jump process of one state advanced event by event from time t
    to t1, on Python floats; returns the new state as a tuple.

    At each event the propensities are formed at the current state and
    time, a negative one clamped at zero and that of a reaction that would
    overdraw a compartment zeroed by a product (so a non-finite one still
    makes the total non-finite); DomainError if their total is not finite.
    The wait is an exponential from `exps` over the total, none when the
    total is zero.  A wait past the cap min(dt_max, t1 - t) is discarded:
    the clock moves by the cap and nothing fires.  The driven coordinates
    move by Euler-Maruyama over the elapsed stretch from the state before
    the jump, one normal each from `normals`.  When the wait ends within
    the cap, the first reaction whose cumulative propensity (summed in
    listing order) exceeds a uniform from `unis` times the total fires; the
    target is held below the total by nextafter, so a reaction of zero
    propensity is never picked.  `exps`, `unis` and `normals` are iterators
    of floats taken with next().
    """
    S = cm.stoich_full
    needed = set(cm._blocks["rates"][1])
    if cm.n_diff:
        needed |= cm._blocks["driven"][1] | cm._blocks["vols"][1]
    states = needed & set(cm.state_names)

    lines = ["def jump(x, t, t1, dt_max, p, exps, unis, normals):",
             f"    {''.join(f'_y{i}, ' for i in range(cm.nx))}= x"]
    cm._prologue(lines, needed - states)
    lines += ["    _end = t1 - 1e-12", "    while t < _end:"]
    loop = []
    cm._prologue(loop, states, read="_y{}")
    loop += cm._blocks["rates"][0]
    for k in range(cm.n_react):
        loop.append(f"    _a{k} = 0.0 if _a{k} <= 0.0 else _a{k}")
        removes = [f"_y{i} >= {float(cm.removals[i, k])!r}"
                   for i in range(cm.n_comp) if cm.removals[i, k] > 0]
        if removes:
            loop.append(f"    _a{k} = _a{k} if {' and '.join(removes)}"
                        f" else 0.0*_a{k}")
    # _c{k}: cumulative propensities; the last is the total
    loop += [f"    _c{k} = {f'_c{k - 1} + ' if k else ''}_a{k}"
             for k in range(cm.n_react)]
    total = f"_c{cm.n_react - 1}" if cm.n_react else "0.0"
    loop += [f"    if not {total} < inf:",
             "        raise DomainError('non-finite rate during jump "
             "simulation')",
             "    _cap = t1 - t",
             "    if dt_max < _cap:",
             "        _cap = dt_max",
             f"    _tau = next(exps)/{total} if {total} > 0.0 else inf",
             "    _el = _tau if _tau < _cap else _cap"]
    if cm.n_diff:
        loop += cm._blocks["driven"][0] + cm._blocks["vols"][0]
        loop.append("    _sq = sqrt(_el)")
        loop += [f"    _y{i} = _y{i} + (_el*_d{i} + _sq*_v{i - cm.n_comp}"
                 "*next(normals))"
                 for i in range(cm.n_comp, cm.n_comp + cm.n_diff)]
    loop.append("    t = t + _el")
    if cm.n_react:
        # below the total, the target is below nextafter(total, 0.0) too
        loop += ["    if _tau < _cap:",
                 f"        _tg = next(unis)*{total}",
                 f"        if not _tg < {total}:",
                 f"            _tg = nextafter({total}, 0.0)"]
        for k in range(cm.n_react):
            if k < cm.n_react - 1:
                loop.append(f"        {'elif' if k else 'if'} _tg < _c{k}:")
            elif k:
                loop.append("        else:")
            indent = " " * (12 if cm.n_react > 1 else 8)
            moves = [f"{indent}_y{i} += {float(S[i, k])!r}"
                     for i in range(cm.nx) if S[i, k]]
            loop += moves or [f"{indent}pass"]
    lines += ["    " + line for line in loop]
    lines.append(f"    return ({''.join(f'_y{i}, ' for i in range(cm.nx))})")
    return "\n".join(lines) + "\n"
