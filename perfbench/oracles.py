"""Output checks, run after the timed loop, that count towards error_rate.

`summarise` runs between ops and must not touch the program: it only
reduces an op's stdout to what the checks need, so large rendered
polynomials are not kept in memory.  `check` runs once the loop is over
and may import the program's modules for independent routes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import workloads

_VERIFY_LINE = re.compile(r"^([a-z0-9-]+): PASS \(\d+ checks\)$")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summarise(kind: str, stdout: str) -> dict:
    """What the checks need from one op's stdout."""
    if kind == "schur-text":
        lines = stdout.splitlines()
        values = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
        return {"values": {k: _sha(v) for k, v in values.items()}, "verdict": lines[-1] if lines else ""}
    if kind == "schur-json":
        obj = json.loads(stdout)
        agree = obj.pop("agree", None)
        return {"values": {k: _sha(v) for k, v in obj.items()}, "agree": agree}
    return {"text": stdout}


# ---------------------------------------------------------------------------
# Independent combinatorial routes


def e_regular(parts, e: int) -> bool:
    """No part value is repeated e or more times."""
    return all(c < e for c in Counter(parts).values())


@lru_cache(maxsize=None)
def regular_partition_counts(e: int, n_max: int) -> tuple[int, ...]:
    """Number of e-regular partitions of 0..n_max, via Glaisher's bijection:
    they are as many as the partitions into parts not divisible by e."""
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        if part % e == 0:
            continue
        for total in range(part, n_max + 1):
            counts[total] += counts[total - part]
    return tuple(counts)


def cylindric(comps, s, e: int) -> bool:
    """Closed-form crystal membership for weakly increasing charges s with
    s[-1] - s[0] < e: cylindric row inequalities, and no part size whose
    rightmost-node residues cover every class mod e."""
    level = len(comps)

    def part(c, i):
        return c[i - 1] if 1 <= i <= len(c) else 0

    width = max(len(c) for c in comps) + e + 1
    pairs = [(j, j + 1, s[j + 1] - s[j]) for j in range(level - 1)]
    pairs.append((level - 1, 0, e + s[0] - s[level - 1]))
    for a, b, shift in pairs:
        for i in range(1, width + 1):
            if part(comps[a], i) < part(comps[b], i + shift):
                return False
    for k in {p for c in comps for p in c}:
        residues = {
            (k - i + s[j]) % e
            for j, c in enumerate(comps)
            for i in range(1, len(c) + 1)
            if c[i - 1] == k
        }
        if len(residues) == e:
            return False
    return True


def cylindric_hypothesis(s, e: int) -> bool:
    return all(a <= b for a, b in zip(s, s[1:])) and s[-1] - s[0] < e


@lru_cache(maxsize=None)
def cylindric_counts(s: tuple[int, ...], e: int, n_max: int) -> tuple[int, ...]:
    return tuple(
        sum(1 for m in workloads.multipartitions(len(s), k) if cylindric(m, s, e))
        for k in range(n_max + 1)
    )


def _compositions(n: int, parts: int):
    for cut in itertools.combinations(range(n + parts - 1), parts - 1):
        bounds = (-1,) + cut + (n + parts - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(parts))


# ---------------------------------------------------------------------------
# Per-kind checks; each returns None or a failure message


class Checker:
    """Holds the memo tables of the expanded routes across one run's ops."""

    def __init__(self):
        from ariki import basicset, combinatorics, exactalg, schur

        self.basicset, self.combinatorics, self.exactalg, self.schur = basicset, combinatorics, exactalg, schur
        self._schur_elements = {}
        self.coverage: Counter = Counter()

    def _schur_cf(self, lam):
        key = self.combinatorics.multipartition_to_json(lam)
        if key not in self._schur_elements:
            self._schur_elements[key] = self.schur.schur_cancellation_free(lam)
        return self._schur_elements[key]

    def _nonzero_at_root_of_unity(self, lam, e: int, v) -> bool:
        theta = self.schur.spec_map_root_of_unity(e, 1, tuple(v))
        return not self.exactalg.specialise(self._schur_cf(lam), theta).is_zero()

    def schur_text(self, op, summary, partner):
        values = summary["values"]
        if summary["verdict"] != "AGREE":
            return f"last line is {summary['verdict']!r}, not AGREE"
        if sorted(values) != ["cancel", "gim", "mathas"] or len(set(values.values())) != 1:
            return "the three formulas do not print one value"
        return None

    def schur_json(self, op, summary, partner):
        if summary["agree"] is not True:
            return "--json reports agree != true"
        if partner is not None and summary["values"] != partner["values"]:
            return "--json values differ from the text form"
        return None

    def semisimple(self, op, summary, partner):
        p = op["params"]
        obj = json.loads(summary["text"])
        spec = self.schur.CycloSpec(p["e"], p["k"], p["r"], tuple(p["charges"]))
        e_prime = p["e"] // math.gcd(p["e"], p["r"])
        singletons = all(len(c) == 1 for c in self.basicset.dm_partition(spec, p["l"], p["n"]).classes)
        expected = "SEMISIMPLE" if not (2 <= e_prime <= p["n"]) and singletons else "NOT SEMISIMPLE"
        if obj["verdict"] != expected:
            return f"verdict {obj['verdict']}, structural route says {expected}"
        if (obj["thetaP"] == "0") != (expected == "NOT SEMISIMPLE"):
            return "thetaP vanishing disagrees with the verdict"
        if obj["conductor"] != p["l"] * p["e"] // math.gcd(p["l"], p["e"]):
            return f"conductor {obj['conductor']} != lcm(l, e)"
        return None

    def avalue(self, op, summary, partner):
        lines = summary["text"].splitlines()
        if not lines or lines[-1] != "AGREE":
            return "avalue does not print AGREE"
        values = {Fraction(line.split(": ", 1)[1]) for line in lines[:-1]}
        return None if len(lines) == 4 and len(values) == 1 else "the three a-value routes differ"

    def defect0_all(self, op, summary, partner):
        p = op["params"]
        expected = [
            self.combinatorics.multipartition_to_json(lam)
            for lam in self.combinatorics.enumerate_multipartitions(p["l"], p["n"])
            if self._nonzero_at_root_of_unity(lam, p["e"], p["v"])
        ]
        if summary["text"].splitlines() != expected:
            return "defect-0 list differs from the zero test of the specialised Schur elements"
        return None

    def defect0_lambda(self, op, summary, partner):
        p = op["params"]
        lam = self.combinatorics.multipartition_from_json(p["lam"])
        expected = "DEFECT0" if self._nonzero_at_root_of_unity(lam, p["e"], p["v"]) else "NOT DEFECT0"
        got = summary["text"].strip()
        return None if got == expected else f"printed {got}, zero test says {expected}"

    def basicset_elements(self, op, summary, partner):
        p = op["params"]
        obj = json.loads(summary["text"])
        elements = [tuple(tuple(c) for c in m) for m in obj["elements"]]
        l, n = p["l"], p["n"]
        if len(set(elements)) != len(elements):
            return "repeated element"
        if any(len(m) != l or sum(map(sum, m)) != n for m in elements):
            return "element of the wrong level or rank"
        spec = self.schur.CycloSpec(p["e"], p["k"], p["r"], tuple(p["charges"]))
        dm = self.basicset.dm_partition(spec, l, n)
        e_prime = dm.e_prime
        # Per class: a membership test and the counts by rank, where an
        # independent characterisation of the crystal applies.
        class_rules = []
        for idx, cls in enumerate(dm.classes):
            if len(cls) == 1:
                class_rules.append(
                    (cls, lambda proj, e=e_prime: e_regular(proj[0], e), regular_partition_counts(e_prime, n))
                )
                continue
            s = self.basicset.charge_for(dm, idx, spec).s
            if cylindric_hypothesis(s, e_prime):
                class_rules.append(
                    (cls, lambda proj, s=s, e=e_prime: cylindric(proj, s, e), cylindric_counts(s, e_prime, n))
                )
            else:
                class_rules.append(None)
        for rule in class_rules:
            if rule is None:
                continue
            cls, member, _ = rule
            for m in elements:
                if not member(tuple(m[i] for i in cls)):
                    return f"class {cls} projection of {workloads.mp_json(m)} fails its characterisation"
        if any(rule is None for rule in class_rules):
            self.coverage["basicset-partial"] += 1
            return None
        expected = sum(
            math.prod(rule[2][k] for rule, k in zip(class_rules, sizes))
            for sizes in _compositions(n, len(class_rules))
        )
        self.coverage["basicset-full"] += 1
        return None if expected == len(elements) else f"{len(elements)} elements, independent count {expected}"

    def gpn(self, op, summary, partner):
        p = op["params"]
        l, pp, n = p["l"], p["p"], p["n"]
        d = l // pp
        ambient = self.schur.CycloSpec(p["e"], p["k"], p["r"] * pp, tuple(p["charges"]) * pp)
        ambient_set = {
            self.combinatorics.multipartition_to_json(x)
            for x in self.basicset.assemble_basic_set(ambient, l, n).elements
        }
        total = 0
        seen = set()
        for line in summary["text"].splitlines():
            rep, orbit_field, stab_field, labels_field, *more = line.split(" ")
            orbit_size = int(orbit_field.removeprefix("orbitSize="))
            stab = int(stab_field.removeprefix("stabilizerSize="))
            labels = [labels_field.removeprefix("labels=")] + more
            comps = json.loads(rep)
            orbit = [comps]
            while True:
                nxt = orbit[-1][-d:] + orbit[-1][:-d]
                if nxt == comps:
                    break
                orbit.append(nxt)
            members = {workloads.mp_json(x) for x in orbit}
            if pp % orbit_size or orbit_size * stab != pp or len(labels) != stab:
                return f"orbit {rep}: size {orbit_size} and stabiliser {stab} do not fit p = {pp}"
            if len(orbit) != orbit_size or not members <= ambient_set or members & seen:
                return f"orbit {rep} does not match the rotation orbit inside the ambient set"
            seen |= members
            total += orbit_size
        return None if total == len(ambient_set) else f"orbit sizes sum to {total}, ambient set has {len(ambient_set)}"

    def verify(self, op, summary, partner):
        lines = summary["text"].splitlines()
        matches = [_VERIFY_LINE.match(line) for line in lines]
        if len(lines) != 1 or not matches[0] or matches[0].group(1) != op["params"]["suite"]:
            return f"verify output is not one PASS line for {op['params']['suite']}: {summary['text']!r}"
        return None

    def check(self, op, summary, partner=None):
        """None when the op's output is right, else what is wrong."""
        method = {
            "schur-text": self.schur_text,
            "schur-json": self.schur_json,
            "semisimple": self.semisimple,
            "avalue": self.avalue,
            "defect0-all": self.defect0_all,
            "defect0-lambda": self.defect0_lambda,
            "basicset": self.basicset_elements,
            "gpn": self.gpn,
            "verify": self.verify,
        }[op["kind"]]
        self.coverage[op["kind"]] += 1
        return method(op, summary, partner)
