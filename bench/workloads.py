"""The three seeded workloads of the dp1toric benchmark.

Each workload draws its ops from a finite universe whose answers at the
seed commit are recorded in ``expected/<workload>.json`` as CRC-32 digests
of each op's canonical output text.  `Workload.ops(seed)` is a pure
function of the seed and the recorded data: the program under test never
decides which inputs it is given.  `run` is the timed call into the public
API; `check` runs outside the timed region and returns a failure message
or None.

Re-recording (`record`) is only for a change that alters answers on
purpose and says so in CHANGES.md.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import math
import random
import struct
import sys
import zlib
from array import array
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import dp1toric
from dp1toric import chow, cli, conditions, grading
from dp1toric.conditions import FibrationReport
from dp1toric.grading import BundleParams, GradingMatrix

FORMATS = ("plain", "json", "csv", "markdown")
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def run_cli(argv: list[str]) -> tuple[str, int]:
    """`cli.main` in-process with stdout captured, as a user script would."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def cli_text(out: str, code: int) -> str:
    """Canonical text of a CLI call: its stdout and its exit code."""
    return f"{out}exit {code}\n"


def lattice(ranges) -> list[tuple[int, int, int]]:
    """Triplets of a box in lexicographic order."""
    return list(product(*(range(lo, hi + 1) for lo, hi in ranges)))


def pack_crcs(values: list[int]) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}I", *values)).decode()


def unpack_crcs(text: str) -> array:
    crcs = array("I", base64.b64decode(text))
    if sys.byteorder == "big":
        crcs.byteswap()
    return crcs


def pack_bits(bits: list[bool]) -> str:
    raw = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            raw[i // 8] |= 1 << (i % 8)
    return base64.b64encode(bytes(raw)).decode()


def unpack_bits(text: str, n: int) -> bytearray:
    raw = base64.b64decode(text)
    return bytearray(raw[i // 8] >> (i % 8) & 1 for i in range(n))


class Workload:
    name = ""
    cold_argv: list[str] = []
    # A run is a whole number of rounds of this many ops, each with the
    # same mix of ops, so that round times measure the machine's speed.
    round_size = 1

    def __init__(self, expected: dict):
        self.expected = expected

    @classmethod
    def load(cls) -> "Workload":
        path = EXPECTED_DIR / f"{cls.name}.json"
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def ops(self, seed: int) -> list[tuple]:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        raise NotImplementedError

    def triplets(self, op) -> int:
        """Triplets (lambda, mu, nu) the op examines."""
        return 1

    def trace_check(self, op, calls, index) -> str | None:
        """Check one traced op's call counts (indexed by `index`)."""
        return None

    def label(self, op) -> str:
        return " ".join(map(str, op))

    @classmethod
    def record(cls, log) -> dict:
        raise NotImplementedError

    @classmethod
    def record_cold_cli(cls) -> dict:
        return {"argv": cls.cold_argv, "crc32": crc(cli_text(*run_cli(cls.cold_argv)))}


class OracleScan(Workload):
    """`oracle --lambda .. --mu .. --nu ..` on seeded boxes, in-process.

    The recorded catalogue holds STRATA x BOXES_PER_STRATUM boxes inside
    DEFAULT_BOX.inflated(10), with log-uniform volumes from MIN_VOLUME to
    the default box's 20,801 triplets, drawn from a fixed catalogue seed.
    Sorted by cost (traced calls at recording), they form STRATA strata of
    BOXES_PER_STRATUM.  The run seed orders each stratum's boxes; round r
    takes the r-th box of every stratum plus DEFAULT_BOX and
    DEFAULT_BOX.inflated(10), shuffled.  So every round has the same spread
    of costs, and no catalogue box repeats within the op list.  Runs end on
    a round boundary (`round_size`), so every run has the same mix.
    """

    name = "oracle_scan"
    cold_argv = ["oracle"]
    STRATA = 16
    BOXES_PER_STRATUM = 20
    MIN_VOLUME = 500
    CATALOGUE_SEED = 20180611
    REGION = ((0, 20), (-40, 40), (0, 40))  # DEFAULT_BOX.inflated(10)

    def __init__(self, expected: dict):
        super().__init__(expected)
        self.round_size = len(expected["strata"]) + len(expected["fixed"])
        self.digest = {}
        for entry in expected["fixed"] + [e for s in expected["strata"] for e in s]:
            self.digest[self._box(entry["box"])] = entry["crc32"]

    @staticmethod
    def _box(ranges) -> tuple:
        return tuple(tuple(r) for r in ranges)

    def ops(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        fixed = [self._box(e["box"]) for e in self.expected["fixed"]]
        orders = [rng.sample([self._box(e["box"]) for e in stratum], len(stratum))
                  for stratum in self.expected["strata"]]
        ops = []
        for r in range(self.BOXES_PER_STRATUM):
            round_ = [order[r] for order in orders] + fixed
            rng.shuffle(round_)
            ops.extend(round_)
        return ops

    @staticmethod
    def argv(box) -> list[str]:
        (llo, lhi), (mlo, mhi), (nlo, nhi) = box
        return ["oracle", "--lambda", str(llo), str(lhi), "--mu", str(mlo),
                str(mhi), "--nu", str(nlo), str(nhi)]

    def run(self, op):
        return run_cli(self.argv(op))

    def check(self, op, result) -> str | None:
        out, code = result
        if crc(cli_text(out, code)) != self.digest[op]:
            return "output differs from the recorded output"
        for line in out.splitlines():
            fields = line.split()
            if len(fields) < 2 or not fields[0].isdigit():
                continue
            triplet = tuple(int(v) for v in fields[1].strip("()").split(","))
            if not all(lo <= v <= hi for v, (lo, hi) in zip(triplet, op)):
                return f"row {triplet} lies outside the box"
        return None

    def triplets(self, op) -> int:
        return math.prod(hi - lo + 1 for lo, hi in op)

    def label(self, op) -> str:
        return " ".join(self.argv(op))

    @classmethod
    def _catalogue_box(cls, rng: random.Random, k: int) -> tuple:
        """A box whose log-volume lies in the k-th of STRATA equal slices of
        [log MIN_VOLUME, log 20801]."""
        lo, hi = math.log(cls.MIN_VOLUME), math.log(20801)
        width = (hi - lo) / cls.STRATA
        spans = [b - a + 1 for a, b in cls.REGION]
        while True:
            target = math.exp(rng.uniform(lo + k * width, lo + (k + 1) * width))
            a = rng.randint(max(1, math.ceil(target / (spans[1] * spans[2]))),
                            spans[0])
            b = min(spans[1], max(1, round((target / a) ** rng.uniform(0.35, 0.65))))
            c = min(spans[2], max(1, round(target / (a * b))))
            if abs(math.log(a * b * c) - math.log(target)) <= width / 2:
                break
        box = []
        for (lo_, hi_), n in zip(cls.REGION, (a, b, c)):
            start = rng.randint(lo_, hi_ - n + 1)
            box.append((start, start + n - 1))
        return tuple(box)

    @classmethod
    def record(cls, log) -> dict:
        from tracing import Tracer

        rng = random.Random(cls.CATALOGUE_SEED)
        boxes = [cls._catalogue_box(rng, k) for k in range(cls.STRATA)
                 for _ in range(cls.BOXES_PER_STRATUM)]
        default = dp1toric.DEFAULT_BOX
        fixed = [(b.lambda_range, b.mu_range, b.nu_range)
                 for b in (default, default.inflated(10))]
        entries = []
        for i, box in enumerate(fixed + boxes):
            tracer = Tracer(max_spans=0)
            tracer.install()
            try:
                text = cli_text(*run_cli(cls.argv(box)))
            finally:
                tracer.uninstall()
            entries.append({"box": [list(r) for r in box], "crc32": crc(text),
                            "calls": sum(tracer.calls)})
            if i % 32 == 0:
                log(f"{cls.name}: box {i}/{len(fixed) + len(boxes)}")
        catalogue = sorted(entries[len(fixed):], key=lambda e: e["calls"])
        n = cls.BOXES_PER_STRATUM
        return {"fixed": entries[:len(fixed)],
                "strata": [catalogue[k:k + n] for k in range(0, len(catalogue), n)]}


class AnalyzeMix(Workload):
    """`render_report(report(p), fmt)` over three strata of REGION.

    - invalid: validity-only path;
    - valid: valid and off the certificate path (all in `conditions`);
    - certificate: `k_status` runs `is_dz_movable_on_x`.  Exactly 8
      triplets, all inside DEFAULT_BOX, among them (0,-3,0); (3,1,10) is
      valid and cheap.

    REGION is DEFAULT_BOX.inflated(30), not DEFAULT_BOX: the default box
    holds 8,810 valid triplets, under two seconds of ops, and no run may
    repeat a non-certificate op.  Each round holds ROUND ops of each
    stratum, shuffled.  Invalid and valid ops are drawn without replacement
    over the whole op list; each such triplet has a fixed format, cycling
    through FORMATS in lexicographic order within its stratum.  Certificate
    ops cycle through the 8 triplets x 4 formats, so they repeat by nature:
    that is the work ops share.

    An op is the int `index * 4 + format`, where `index` is the triplet's
    position in REGION in lexicographic order, so that the op list and the
    expected outputs stay small next to the program's own memory.
    """

    name = "analyze_mix"
    cold_argv = ["analyze", "1", "1", "3", "--format", "json"]
    REGION = ((0, 40), (-60, 60), (0, 60))  # DEFAULT_BOX.inflated(30)
    ROUND = {"invalid": 400, "valid": 400, "certificate": 200}
    ROUNDS = 160  # 64,000 of the 67,354 valid triplets
    round_size = sum(ROUND.values())

    def __init__(self, expected: dict):
        super().__init__(expected)
        spans = [hi - lo + 1 for lo, hi in expected["region"]]
        self.valid = unpack_bits(expected["valid"], math.prod(spans))
        self.crcs = unpack_crcs(expected["crc32"])
        self.certificate = {}  # op -> crc32
        for key, fmts in expected["certificate"].items():
            index = self.index(tuple(map(int, key.split(","))))
            for f, fmt in enumerate(FORMATS):
                self.certificate[index * 4 + f] = fmts[fmt]
        self.strata = {"invalid": array("q"), "valid": array("q"),
                       "certificate": array("q", sorted(self.certificate))}
        for index, is_valid in enumerate(self.valid):
            if index * 4 not in self.certificate:
                stratum = self.strata["valid" if is_valid else "invalid"]
                stratum.append(index * 4 + len(stratum) % len(FORMATS))

    @classmethod
    def index(cls, triplet) -> int:
        (l0, _), (m0, m1), (n0, n1) = cls.REGION
        lam, mu, nu = triplet
        return ((lam - l0) * (m1 - m0 + 1) + mu - m0) * (n1 - n0 + 1) + nu - n0

    @classmethod
    def triplet(cls, index: int) -> tuple[int, int, int]:
        (l0, _), (m0, m1), (n0, n1) = cls.REGION
        rest, nu = divmod(index, n1 - n0 + 1)
        lam, mu = divmod(rest, m1 - m0 + 1)
        return lam + l0, mu + m0, nu + n0

    def stratum(self, op: int) -> str:
        if op in self.certificate:
            return "certificate"
        return "valid" if self.valid[op >> 2] else "invalid"

    def ops(self, seed: int) -> array:
        rng = random.Random(seed)
        draws = {}
        for stratum in ("invalid", "valid"):
            pool = array("q", self.strata[stratum])
            rng.shuffle(pool)  # in place: a sample() would copy it to a list
            draws[stratum] = pool[:self.ROUND[stratum] * self.ROUNDS]
        certificate = self.strata["certificate"]
        n_cert = self.ROUND["certificate"]
        ops = array("q")
        for r in range(self.ROUNDS):
            round_ = [certificate[(r * n_cert + j) % len(certificate)]
                      for j in range(n_cert)]
            for stratum, drawn in draws.items():
                n = self.ROUND[stratum]
                round_.extend(drawn[r * n:(r + 1) * n])
            rng.shuffle(round_)
            ops.extend(round_)
        return ops

    def run(self, op):
        rep = conditions.report(BundleParams(*self.triplet(op >> 2)))
        return rep, cli.render_report(rep, FORMATS[op & 3])

    def check(self, op, result) -> str | None:
        rep, text = result
        if crc(text) != self.certificate.get(op, self.crcs[op >> 2]):
            return "output differs from the recorded output"
        if FORMATS[op & 3] == "json" and \
                FibrationReport.from_json_dict(json.loads(text)) != rep:
            return "JSON report does not round-trip"
        return None

    def trace_check(self, op, calls, index) -> str | None:
        dz = calls[index["grading.is_dz_movable_on_x"]]
        stratum = self.stratum(op)
        if dz != (stratum == "certificate"):
            return f"{stratum} op made {dz} is_dz_movable_on_x calls"
        return None

    def label(self, op) -> str:
        return "{} {} {} {}".format(*self.triplet(op >> 2), FORMATS[op & 3])

    @classmethod
    def record(cls, log) -> dict:
        from tracing import INDEX, Tracer

        triplets = lattice(cls.REGION)
        tracer = Tracer(max_spans=0)
        dz = INDEX["grading.is_dz_movable_on_x"]
        tracer.install()
        try:
            on_path = []
            for t in triplets:
                before = tracer.calls[dz]
                conditions.report(BundleParams(*t))
                on_path.append(tracer.calls[dz] > before)
        finally:
            tracer.uninstall()
        valid = [conditions.validity(BundleParams(*t)).is_valid for t in triplets]
        counts = {"invalid": 0, "valid": 0}
        crcs, certificate = [], {}
        for t, is_valid, cert in zip(triplets, valid, on_path):
            rep = conditions.report(BundleParams(*t))
            if cert:
                certificate[",".join(map(str, t))] = {
                    fmt: crc(cli.render_report(rep, fmt)) for fmt in FORMATS}
                crcs.append(0)
                continue
            stratum = "valid" if is_valid else "invalid"
            fmt = FORMATS[counts[stratum] % len(FORMATS)]
            counts[stratum] += 1
            crcs.append(crc(cli.render_report(rep, fmt)))
        log(f"{cls.name}: {counts} and {len(certificate)} certificate triplets")
        return {"region": [list(r) for r in cls.REGION], "valid": pack_bits(valid),
                "certificate": certificate, "crc32": pack_crcs(crcs)}


def basis_count(lam: int, mu: int, nu: int, h: int, f: int) -> int:
    """Closed-form number of monomials of bidegree (f, h): for each fiber
    part x^c y^d z^e w^g of H-degree h, the residual F-degree r >= 0 is
    split over u and v in r + 1 ways."""
    return sum(max(0, f - lam * d - mu * e - nu * g + 1)
               for g in range(h // 3 + 1)
               for e in range((h - 3 * g) // 2 + 1)
               for d in range(h - 3 * g - 2 * e + 1))


class Crosscheck(Workload):
    """Intersection numbers and a large monomial basis per seeded triplet.

    Each op takes a triplet of BOX (no validity filter: the
    intersection formulas hold on the whole grid), presented as a random
    gauge-equivalent top row (shift, x/y swap) and passed through
    `normalize`.  It computes the 56 `triple_on_x` products of
    {H, F, D_y, D_z, D_w, -K_X}, `derive_h4`, and
    `cli.main(["basis", lambda, mu, nu, "6", 2*nu, "--format", fmt])`.
    Triplets are drawn without replacement; each has a fixed format,
    cycling through FORMATS in lexicographic order.
    """

    name = "crosscheck"
    cold_argv = ["basis", "2", "3", "5", "6", "10", "--format", "csv"]
    BOX = ((0, 10), (-30, 30), (0, 40))
    OPS = 8000
    round_size = 400
    MAX_SHIFT = 6

    def __init__(self, expected: dict):
        super().__init__(expected)
        triplets = lattice(expected["box"])
        self.digest = {(*t, FORMATS[i % len(FORMATS)]): digest
                       for i, (t, digest) in
                       enumerate(zip(triplets, unpack_crcs(expected["crc32"])))}

    def ops(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        ops = []
        for lam, mu, nu, fmt in rng.sample(sorted(self.digest), self.OPS):
            k = rng.randint(-self.MAX_SHIFT, self.MAX_SHIFT)
            x, y = k, lam + k
            if rng.random() < 0.5:
                x, y = y, x
            ops.append((lam, mu, nu, fmt, (1, 1, x, y, mu + 2 * k, nu + 3 * k)))
        return ops

    @staticmethod
    def compute(top_row, fmt):
        p = grading.normalize(GradingMatrix(top_row))
        classes = [grading.H, grading.F, grading.torus_divisor_class(p, "y"),
                   grading.torus_divisor_class(p, "z"),
                   grading.torus_divisor_class(p, "w"), chow.anticanonical_on_x(p)]
        products = [chow.triple_on_x(p, a, b, c)
                    for a, b, c in combinations_with_replacement(classes, 3)]
        h4 = chow.derive_h4(p)
        out, code = run_cli(["basis", str(p.lam), str(p.mu), str(p.nu), "6",
                             str(2 * p.nu), "--format", fmt])
        return p, products, h4, out, code

    @staticmethod
    def canonical(products, h4, out, code) -> str:
        return " ".join(map(str, products)) + f"\n{h4}\n" + cli_text(out, code)

    def run(self, op):
        return self.compute(op[4], op[3])

    def check(self, op, result) -> str | None:
        lam, mu, nu, fmt, _ = op
        p, products, h4, out, code = result
        if (p.lam, p.mu, p.nu) != (lam, mu, nu):
            return f"normalize gave {p}"
        if h4 != -Fraction(6 * lam + 3 * mu + 2 * nu, 36):
            return f"derive_h4 = {h4}"
        if products[-1] != 2 * lam + Fraction(5 * mu, 2) - 3 * nu + 6:
            return f"(-K_X)^3 = {products[-1]}"
        lines = (len(json.loads(out)) if fmt == "json"
                 else out.count("\n") - (fmt == "csv"))
        if lines != basis_count(lam, mu, nu, 6, 2 * nu):
            return f"basis has {lines} monomials"
        if crc(self.canonical(products, h4, out, code)) != self.digest[op[:4]]:
            return "output differs from the recorded output"
        return None

    @classmethod
    def record(cls, log) -> dict:
        triplets = lattice(cls.BOX)
        crcs = []
        for i, (lam, mu, nu) in enumerate(triplets):
            _, products, h4, out, code = cls.compute(
                (1, 1, 0, lam, mu, nu), FORMATS[i % len(FORMATS)])
            crcs.append(crc(cls.canonical(products, h4, out, code)))
            if i % 5000 == 0:
                log(f"{cls.name}: {i}/{len(triplets)}")
        return {"box": [list(r) for r in cls.BOX], "crc32": pack_crcs(crcs)}


WORKLOADS = {w.name: w for w in (OracleScan, AnalyzeMix, Crosscheck)}
