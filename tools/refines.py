"""Whether one checkout's records refine another's.

``tools/sweep.py --refines OTHER_SRC`` and ``tools/fingerprint.py
--refines OTHER_SRC`` compute their records twice: with the package of the
checkout the tool sits in, and in a second process with the ``onemotives``
package under OTHER_SRC (a checkout's ``src``, or the checkout itself).
Records are matched by tag and item.  A changed record is accepted when

* it answers where OTHER raised ``PrecisionExhausted``; or
* both answer with the same structure and values, except that every
  p-adic entry agrees with OTHER's mod p^a, where a is the absolute
  precision of OTHER's entry, and knows at least as many absolute digits
  (an unresolved zero may become an exact zero), or became a rational
  that lies in OTHER's coset, v_p(new - old) >= a (so an exact zero
  stays 0); every Hom basis keeps its pivot positions; and
  ``precision_report`` is equal, higher or null.

A record only the checkout computes (after an error of OTHER's that became
an answer) is accepted too.  Everything else is printed to stderr with both
records, and the tool then exits 1.  A summary line counts the records and
the kinds of refinement seen.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def alongside(other: str | None, tool: str, arg: int, compute) -> tuple:
    """``compute(arg)``, and the lines of ``tools/<tool>.py``'s ``records(arg)``
    with the package under ``other`` (None without it), computed meanwhile
    in a fresh process that writes no bytecode."""
    if other is None:
        return compute(arg), None
    src = Path(other).resolve()
    src = src / "src" if (src / "src" / "onemotives").is_dir() else src
    if not (src / "onemotives").is_dir():
        raise SystemExit(f"--refines: no onemotives package under {other}")
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(src)!r}, {str(TOOLS)!r}]\n"
        # imported first, the package under src is the one the tool then finds
        "import onemotives\n"
        f"import {tool}\n"
        f"json.dump({tool}.records({arg!r}), sys.stdout)\n"
    )
    with subprocess.Popen([sys.executable, "-B", "-c", code], stdout=subprocess.PIPE, text=True) as child:
        result = compute(arg)
        out, _ = child.communicate()
    if child.returncode:
        raise SystemExit(f"--refines: computing the other records failed with exit {child.returncode}")
    return result, json.loads(out)


# -- the refinement order ---------------------------------------------------------


def _valuation(x: Fraction, p: int) -> int | float:
    if x == 0:
        return float("inf")
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _scalar(s: dict, p: int) -> tuple[Fraction, int | float]:
    """Value and absolute precision of a p-adic scalar's JSON form."""
    if s["v"] == "inf":
        return Fraction(0), float("inf")
    if s["prec"] == 0:
        return Fraction(0), s["v"]
    return Fraction(int(s["unit"])) * Fraction(p) ** s["v"], s["v"] + s["prec"]


def _pivots(basis: list) -> list:
    """Index of each basis matrix's first nonzero entry: a rational entry
    other than 0, or a p-adic entry with a known digit."""

    def nonzero(e) -> bool:
        return e["v"] != "inf" and e["prec"] > 0 if isinstance(e, dict) else Fraction(e) != 0

    return [next((i for i, e in enumerate(b["entries"]) if nonzero(e)), None) for b in basis]


def _walk(old, new, p: int, seen: Counter) -> str | None:
    """Why ``new`` is no refinement of ``old``, or None; counts the
    refinements it accepts in ``seen``."""
    if old == new:
        return None
    if isinstance(old, dict) and old.keys() == {"v", "unit", "prec"} and isinstance(new, str):
        x, a = _scalar(old, p)
        if _valuation(Fraction(new) - x, p) < a:
            return f"p-adic entry {old} became {new}"
        seen["p-adic entries made exact"] += 1
        return None
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return f"keys {sorted(old)} became {sorted(new)}"
        if old.keys() == {"v", "unit", "prec"}:
            (x, a), (y, b) = _scalar(old, p), _scalar(new, p)
            if b < a or _valuation(y - x, p) < a:
                return f"p-adic entry {old} became {new}"
            made_exact = old["prec"] == 0 and b == float("inf")
            seen["unresolved zeros made exact" if made_exact else "entries with more digits"] += 1
            return None
        if "basis" in old and _pivots(old["basis"]) != _pivots(new["basis"]):
            return f"pivot positions {_pivots(old['basis'])} became {_pivots(new['basis'])}"
        for key in old:
            if key == "precision_report" and old[key] != new[key]:
                if new[key] is not None and (old[key] is None or new[key] < old[key]):
                    return f"precision_report {old[key]} became {new[key]}"
                seen["reports null" if new[key] is None else "reports higher"] += 1
            elif (why := _walk(old[key], new[key], p, seen)) is not None:
                return why
        return None
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return next((why for x, y in zip(old, new) if (why := _walk(x, y, p, seen)) is not None), None)
    return f"{old!r} became {new!r}"


def judge(old: str, new: str, p: int, seen: Counter) -> str | None:
    """Why record line ``new`` does not refine ``old``, or None; over Q_p."""
    (_, _, was), (_, _, now) = json.loads(old), json.loads(new)
    if was == now:
        return None
    if was[:2] == ["error", "PrecisionExhausted"] and now[0] == "ok":
        seen["errors answered"] += 1
        return None
    if was[0] == now[0] == "ok":
        return _walk(was[1], now[1], p, seen)
    return f"outcome {was[:2]} became {now[:2]}"


def compare(old_lines: list[str], new_lines: list[str], prime_of) -> tuple[list[str], Counter]:
    """The rejected records, each with its reason and both lines, and the
    counts of records and refinements; ``prime_of(tag, item)`` is p."""

    def keyed(lines: list[str]) -> dict:
        out, times = {}, Counter()
        for line in lines:
            tag, item, _ = json.loads(line)
            key = json.dumps([tag, item])
            out[key, times[key]] = line
            times[key] += 1
        return out

    old, new = keyed(old_lines), keyed(new_lines)
    seen: Counter = Counter(records=len(new_lines))
    rejected = [f"not computed any more: {line}" for key, line in old.items() if key not in new]
    for key, line in new.items():
        if key not in old:
            seen["added"] += 1
        elif line != old[key]:
            seen["changed"] += 1
            tag, item, _ = json.loads(line)
            why = judge(old[key], line, prime_of(tag, item), seen)
            if why is not None:
                rejected.append(f"not a refinement: {why}\n  was: {old[key]}\n  now: {line}")
    return rejected, seen


def report(old_lines: list[str], new_lines: list[str], prime_of) -> int:
    """Print the comparison to stderr; 1 when a record is rejected."""
    rejected, seen = compare(old_lines, new_lines, prime_of)
    counts = ", ".join(f"{n} {what}" for what, n in seen.items())
    print(f"refines: {counts}, {len(rejected)} rejected", file=sys.stderr)
    for line in rejected:
        print(line, file=sys.stderr)
    return 1 if rejected else 0
