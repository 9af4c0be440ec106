"""Output checks that do not depend on nodepoly or on its B1/B2 tables.

Every expected value here comes from the benchmark's own q-series code:
pentagonal recurrences, divisor sums and plain list convolution.  A check
returns the names of the sub-checks that failed, so the self-test can show
that each sub-check catches the tampering aimed at it.

The counts on K3 and abelian surfaces use a Lagrange-Buermann route.  With
t = DG2(q), [t^d] F(t) = [q^0] F(DG2) * D2G2 / DG2^(d+1).  On K3 with
L^2 = 2h-2 and on an abelian surface with L^2 = 2n, the closed form has
K^2 = L.K = 0, so B1 and B2 drop out and

    T_d(K3, h) = [q^d] (DG2/q)^(h-d) * prod (1-q^k)^(-24)
    T_d(T4, n) = [q^d] (DG2/q)^(n-d-1) * (D2G2/q).

For h = d the K3 value is the Yau-Zaslow number, 176256 at d = 5.
"""

import json
from fractions import Fraction

# -- q-series over lists of exact coefficients -------------------------------


def sigma1_table(n):
    """sigma_1(0..n), with sigma_1(0) = 0."""
    s = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            s[m] += d
    return s


def mul(a, b, n):
    """Cauchy product truncated after q^n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def inverse(a, n):
    """1/a for a series with constant term 1."""
    out = [1]
    for k in range(1, n + 1):
        out.append(-sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)))
    return out


def power(a, e, n):
    """a^e for an integer e; a negative e needs constant term 1."""
    if e < 0:
        a, e = inverse(a, n), -e
    result = [1] + [0] * n
    while e:
        if e & 1:
            result = mul(result, a, n)
        a = mul(a, a, n)
        e >>= 1
    return result


def qderiv(a):
    return [k * c for k, c in enumerate(a)]


def compose(f, g, n):
    """f(g) for g with constant term 0, by Horner's rule."""
    out = [f[n]] + [0] * n
    for k in range(n - 1, -1, -1):
        out = mul(out, g, n)
        out[0] += f[k]
    return out


def log_series(s, n):
    """log s for integer s with constant term 1, from D(log s) = D(s)/s."""
    d = mul(qderiv(s), inverse(s, n), n)
    return [Fraction(0)] + [Fraction(d[k], k) for k in range(1, n + 1)]


def generalized_pentagonals(n):
    """(m(3m-1)/2, sign) for m = 1, -1, 2, -2, ... up to n."""
    out = []
    m = 1
    while m * (3 * m - 1) // 2 <= n:
        sign = 1 if m % 2 else -1
        for g in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if g <= n:
                out.append((g, sign))
        m += 1
    return out


def partitions(n):
    """p(0..n) by Euler's pentagonal recurrence."""
    pent = generalized_pentagonals(n)
    p = [1] + [0] * n
    for k in range(1, n + 1):
        p[k] = sum(sign * p[k - g] for g, sign in pent if g <= k)
    return p


def euler_product(n):
    """prod (1-q^k) by the pentagonal number theorem."""
    out = [1] + [0] * n
    for g, sign in generalized_pentagonals(n):
        out[g] = -sign
    return out


def tau(n):
    """tau(0..n) of Delta = q prod (1-q^k)^24, with tau(0) = 0."""
    return [0] + power(euler_product(n - 1), 24, n - 1)


def dg2_over_q(n):
    s = sigma1_table(n + 1)
    return [(k + 1) * s[k + 1] for k in range(n + 1)]


def d2g2_over_q(n):
    s = sigma1_table(n + 1)
    return [(k + 1) ** 2 * s[k + 1] for k in range(n + 1)]


def disc_factor(n):
    """Delta * D2G2 / q^2 = prod (1-q^k)^24 * D2G2/q."""
    return mul(power(euler_product(n), 24, n), d2g2_over_q(n), n)


BASES = {"DG2/q": dg2_over_q, "Delta*D2G2/q^2": disc_factor}


def tau_is_multiplicative(t):
    """tau(mn) = tau(m) tau(n) for coprime m, n, plus the Hecke relation
    tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)) on prime powers."""
    if t[1] != 1:
        return False
    for n in range(2, len(t)):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        pk = p
        while n % (pk * p) == 0:
            pk *= p
        m = n // pk
        if m > 1:
            if t[n] != t[pk] * t[m]:
                return False
        elif pk > p and t[n] != t[p] * t[n // p] - p ** 11 * t[n // p // p]:
            return False
    return True


def lb_count(family, param, delta):
    """T_delta on K3:param or T4:param by the Lagrange-Buermann route."""
    u = dg2_over_q(delta)
    if family == "K3":
        h = (param + 2) // 2
        p24 = power(partitions(delta), 24, delta)
        return mul(power(u, h - delta, delta), p24, delta)[delta]
    n = param // 2
    return mul(power(u, n - delta - 1, delta), d2g2_over_q(delta), delta)[delta]


# -- per-workload checks -------------------------------------------------------

L2, LK, K2, C2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def parse_poly(doc):
    return {tuple(int(e) for e in k.split(",")): Fraction(v) for k, v in doc.items()}


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


T1 = {L2: 3, LK: 2, C2: 1}
# T_2 = (T_1^2 - 42 L2 - 39 LK - 6 K2 - 7 c2) / 2
T2 = {e: Fraction(c, 2) for e, c in
      poly_add(poly_mul(T1, T1), {L2: -42, LK: -39, K2: -6, C2: -7}).items()}


def _json_payload(output, command, failures):
    rc, text = output
    if rc != 0:
        failures.append("exit-code")
    try:
        doc = json.loads(text)
    except ValueError:
        failures.append("json")
        return None
    if doc.get("command") != command:
        failures.append("command")
        return None
    return doc["payload"]


def check_cli(op, output):
    """Failed sub-checks for one `python -m nodepoly.cli` run."""
    failures = []
    payload = _json_payload(output, op["kind"], failures)
    if payload is None:
        return failures
    kind = op["kind"]
    if kind == "node-polys":
        if parse_poly(payload["0"]) != {(0, 0, 0, 0): 1}:
            failures.append("t0")
        if parse_poly(payload["1"]) != T1:
            failures.append("t1")
        if parse_poly(payload["2"]) != T2:
            failures.append("t2")
    elif kind == "factorize":
        if payload["reassembly_exact"] is not True:
            failures.append("factorize-reassembly")
    elif kind == "yau-zaslow":
        if payload["all_equal"] is not True:
            failures.append("yz-all-equal")
        p24 = power(partitions(5), 24, 5)
        got = [(Fraction(r["node_polynomial_value"]), Fraction(r["partition_coefficient"]))
               for r in payload["rows"]]
        if got != [(c, c) for c in p24]:
            failures.append("yz-p24")
    elif kind == "count":
        family, _, param = op["surface"].partition(":")
        if (Fraction(payload["count"]) != lb_count(family, int(param), 5)
                or payload["validity"] != "in range"):
            failures.append("count-lb")
    return failures


def check_qseries(op, coeffs):
    """Failed sub-checks for one in-process q-series op."""
    kind, n = op["kind"], op["n"]
    c = list(coeffs)
    if len(c) != n + 1:
        return ["order"]
    failures = []
    if kind == "partition_power":
        if c != power(partitions(n), op["e"], n):
            failures.append("partition-pentagonal")
    elif kind == "delta":
        if c != tau(n):
            failures.append("tau-match")
        if not tau_is_multiplicative(c):
            failures.append("tau-multiplicative")
    elif kind == "reversion":
        if compose([0] + dg2_over_q(n - 1), c, n) != [0, 1] + [0] * (n - 1):
            failures.append("reversion-roundtrip")
    else:
        s = BASES[op["base"]](n)
        if kind == "log":
            # D(log s) s = D(s) leaves the constant term free; log s has none
            if c[0] != 0:
                failures.append("log-constant")
            if mul(qderiv(c), s, n) != qderiv(s):
                failures.append("log-derivative")
        elif kind == "exp":
            if c != s:
                failures.append("exp-log-roundtrip")
        elif kind == "inverse":
            if mul(c, s, n) != [1] + [0] * n:
                failures.append("inverse-product")
        elif kind == "pow":
            alpha = Fraction(op["alpha"])
            lhs = mul(s, qderiv(c), n)
            rhs = [alpha * x for x in mul(c, qderiv(s), n)]
            if c[0] != 1 or lhs != rhs:
                failures.append("pow-derivative")
    return failures


def check_inclexcl(op, output):
    """Failed sub-checks for one `inclexcl` run, against a histogram of
    membership signatures."""
    failures = []
    payload = _json_payload(output, "inclexcl", failures)
    if payload is None:
        return failures
    sets = [set(s) for s in op["sets"]]
    k = len(sets)
    hist = [0] * (1 << k)
    for x in set().union(*sets):
        hist[sum(1 << i for i, s in enumerate(sets) if x in s)] += 1
    plain = list(hist)
    for i in range(k):
        for mask in range(1 << k):
            if not mask & (1 << i):
                plain[mask] += plain[mask | (1 << i)]
    union = sum(hist)
    if not (payload["union_size"] == payload["union_via_modified"]
            == payload["union_via_alternating"] == union):
        failures.append("union-agree")
    modified_ok = plain_ok = len(payload["table"]) == (1 << k) - 1
    for row in payload["table"]:
        mask = sum(1 << int(i) for i in row["index_set"].split(","))
        modified_ok = modified_ok and row["modified_cardinality"] == hist[mask]
        plain_ok = plain_ok and row["cardinality"] == plain[mask]
    if not modified_ok:
        failures.append("modified-histogram")
    if not plain_ok:
        failures.append("plain-superset")
    return failures


# -- tampering, for the checker self-test ---------------------------------------


def _edit_payload(edit):
    def tamper(output):
        doc = json.loads(output[1])
        edit(doc["payload"])
        return output[0], json.dumps(doc)
    return tamper


def _bump(poly, key):
    poly[key] = str(Fraction(poly.get(key, "0")) + 1)


def _bump_at(k):
    def tamper(coeffs):
        c = list(coeffs)
        c[k] += 1
        return tuple(c)
    return tamper


def _first_row_bump(field):
    def edit(p):
        p["table"][0][field] += 1
    return edit


# sub-check -> (op kind the sample must have, tampering of its output)
TAMPERS = {
    "cli-delta5": {
        "exit-code": ("node-polys", lambda o: (1, o[1])),
        "t0": ("node-polys", _edit_payload(lambda p: _bump(p["0"], "0,0,0,0"))),
        "t1": ("node-polys", _edit_payload(lambda p: _bump(p["1"], "0,1,0,0"))),
        "t2": ("node-polys", _edit_payload(lambda p: _bump(p["2"], "0,0,0,1"))),
        "factorize-reassembly": ("factorize", _edit_payload(
            lambda p: p.update(reassembly_exact=False))),
        "yz-all-equal": ("yau-zaslow", _edit_payload(lambda p: p.update(all_equal=False))),
        "yz-p24": ("yau-zaslow", _edit_payload(
            lambda p: p["rows"][5].update(partition_coefficient="176257"))),
        "count-lb": ("count", _edit_payload(
            lambda p: p.update(count=str(Fraction(p["count"]) + 1)))),
    },
    "qseries-deep": {
        "partition-pentagonal": ("partition_power", _bump_at(7)),
        "tau-match": ("delta", _bump_at(6)),
        "tau-multiplicative": ("delta", _bump_at(6)),
        "log-constant": ("log", _bump_at(0)),
        "log-derivative": ("log", _bump_at(5)),
        "exp-log-roundtrip": ("exp", _bump_at(5)),
        "inverse-product": ("inverse", _bump_at(5)),
        "pow-derivative": ("pow", _bump_at(5)),
        "reversion-roundtrip": ("reversion", _bump_at(5)),
    },
    "inclexcl-lattice": {
        "exit-code": ("L8", lambda o: (2, o[1])),
        "union-agree": ("L8", _edit_payload(lambda p: p.update(
            union_via_modified=p["union_via_modified"] + 1))),
        "modified-histogram": ("L8", _edit_payload(_first_row_bump("modified_cardinality"))),
        "plain-superset": ("L8", _edit_payload(_first_row_bump("cardinality"))),
    },
}
