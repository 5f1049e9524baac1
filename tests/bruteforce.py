"""Independent brute-force recomputation of every pipeline output.

Works directly on JSON-parsed record dicts with plain loops, kept separate
from the package's data structures and algorithms so the two sides can be
compared as independent implementations. Quadratic passes are fine: this
module is only run on corpora of a few hundred records.
"""

from __future__ import annotations

import json
import math


def parse_records(lines):
    return [json.loads(line) for line in lines if line.strip()]


class Scheme:
    def __init__(self, regions: dict[str, list[str]], label_order: list[str], other: str = "OTHER"):
        self.regions = regions
        self.label_order = list(label_order)
        self.other = other

    def region_of(self, country: str) -> str:
        for label, codes in self.regions.items():
            if country in codes:
                return label
        return self.other

    def rank(self, label: str) -> int:
        return self.label_order.index(label)


def country_weights(countries: list[str], scheme: Scheme) -> dict[str, float]:
    out: dict[str, float] = {}
    for c in countries:
        region = scheme.region_of(c)
        out[region] = out.get(region, 0.0) + 1.0 / len(countries)
    return out


def first_pub_by_author_year(records) -> dict[tuple[str, int], dict]:
    """(author, year) -> the record minimal under (year, seq, pub_id)."""
    best: dict[tuple[str, int], dict] = {}
    for rec in records:
        for author in rec["authors"]:
            key = (author["id"], rec["year"])
            cur = best.get(key)
            rec_key = (rec["year"], rec.get("seq", 0), rec["pub_id"])
            if cur is None or rec_key < (cur["year"], cur.get("seq", 0), cur["pub_id"]):
                best[key] = rec
    return best


def author_countries(rec, author_id) -> list[str]:
    for author in rec["authors"]:
        if author["id"] == author_id:
            return author["countries"]
    raise KeyError(author_id)


def pick_dominant(weights: dict[str, float], prev: str | None, scheme: Scheme) -> str:
    best_w = None
    for w in weights.values():
        if best_w is None or w > best_w:
            best_w = w
    tied = sorted([r for r, w in weights.items() if w == best_w], key=scheme.rank)
    if prev is not None and prev in tied:
        return prev
    return tied[0]


def timelines(records, scheme: Scheme, hysteresis: bool = True):
    """author -> list of (year, weights, source_pub, dominant), year ascending.

    Without ``hysteresis`` a tie ignores the previous year's dominant region."""
    best = first_pub_by_author_year(records)
    authors = sorted({a for a, _ in best})
    out = {}
    for author in authors:
        years = sorted(y for a, y in best if a == author)
        positions = []
        prev = None
        for year in years:
            rec = best[(author, year)]
            weights = country_weights(author_countries(rec, author), scheme)
            dom = pick_dominant(weights, prev if hysteresis else None, scheme)
            positions.append((year, weights, rec["pub_id"], dom))
            prev = dom
        out[author] = positions
    return out


def moves(positions) -> list[tuple[str, str, int]]:
    out = []
    for i in range(1, len(positions)):
        if positions[i][3] != positions[i - 1][3]:
            out.append((positions[i - 1][3], positions[i][3], positions[i][0]))
    return out


def classes(positions, mvs, home: str, host_attribution: str = "latest"):
    """year -> (class key string, since_year)."""
    origin = positions[0][3]
    out = {}
    host = None
    prev_key = None
    since = positions[0][0]
    for year, _w, _p, dom in positions:
        for frm, to, y in mvs:
            if y == year and to == home:
                if host is None or host_attribution == "latest":
                    host = frm
        if host is not None:
            if dom == home:
                key = f"ReturneeResident({home},{host})"
            else:
                key = f"ReturneeAbroad({home},{dom})"
        elif dom == origin:
            key = f"Domestic({origin})"
        else:
            key = f"Overseas({origin},{dom})"
        if key != prev_key:
            since = year
            prev_key = key
        out[year] = (key, since)
    return out


def status(positions, year: int, grace: int = 2) -> str:
    years = [p[0] for p in positions]
    if year in years:
        return "Active"
    if year < min(years):
        raise ValueError("before career")
    if any(y > year for y in years):
        return "GapFilled"
    if year <= max(years) + grace:
        return "GapFilled"
    return "Retired"


def stocks(all_positions, all_classes, year_range, grace: int = 2):
    """(class key, year) -> (preceding, new)."""
    cells: dict[tuple[str, int], list[int]] = {}
    for author, positions in all_positions.items():
        cls = all_classes[author]
        years = [p[0] for p in positions]
        for year in range(year_range[0], year_range[1] + 1):
            if year < min(years):
                continue
            st = status(positions, year, grace)
            if st == "Retired":
                continue
            known = [y for y in years if y <= year]
            if not known:
                continue
            key, since = cls[max(known)]
            cell = cells.setdefault((key, year), [0, 0])
            if since == year:
                cell[1] += 1
            else:
                cell[0] += 1
    return {k: tuple(v) for k, v in cells.items()}


def ratios(cells, home: str, hosts):
    """ratio.csv rows from a ``stocks`` dict: [host, year, metric, counting,
    overseas stock / resident-returnee stock], inf when nobody returned, no
    row when both stocks are empty."""
    out = []
    for host in hosts:
        for year in sorted({y for _key, y in cells}):
            abroad = sum(cells.get((f"Overseas({home},{host})", year), (0, 0)))
            returned = sum(cells.get((f"ReturneeResident({home},{host})", year), (0, 0)))
            if abroad == 0 and returned == 0:
                continue
            value = math.inf if returned == 0 else abroad / returned
            out.append([host, year, "overseas_returnee_ratio", "full", value])
    return out


def baselines(records):
    """(field, year, doc_type) -> mean citations."""
    out = {}
    for rec in records:
        for f in dict.fromkeys(rec["fields"]):
            key = (f, rec["year"], rec["doc_type"])
            if key in out:
                continue
            cohort = [
                r["cites"]
                for r in records
                if r["year"] == rec["year"] and r["doc_type"] == rec["doc_type"]
                and f in dict.fromkeys(r["fields"])
            ]
            out[key] = sum(cohort) / len(cohort)
    return out


def fwci_of(rec, base) -> float:
    fields = list(dict.fromkeys(rec["fields"]))
    expected = sum(base[(f, rec["year"], rec["doc_type"])] for f in fields) / len(fields)
    if expected == 0:
        return 0.0 if rec["cites"] == 0 else math.inf
    return rec["cites"] / expected


def percentile90(values) -> float:
    ordered = sorted(values)
    idx = math.ceil(0.9 * len(ordered))
    return ordered[idx - 1]


def top10(records):
    """pub_id -> (fwci, top10_fwci, top10_cits)."""
    base = baselines(records)
    scores = {rec["pub_id"]: fwci_of(rec, base) for rec in records}
    flags = {}
    for rec in records:
        year_recs = [r for r in records if r["year"] == rec["year"]]
        finite = [scores[r["pub_id"]] for r in year_recs if not math.isinf(scores[r["pub_id"]])]
        score = scores[rec["pub_id"]]
        t_fwci = False
        if finite and not math.isinf(score):
            t_fwci = score > percentile90(finite)
        t_cits = rec["cites"] > percentile90([r["cites"] for r in year_recs])
        flags[rec["pub_id"]] = (score, t_fwci, t_cits)
    return flags


def record_weight(rec, scheme: Scheme, region: str | None, member) -> float:
    """Fractional weight of a record toward a population.

    ``member(author_dict)`` decides authorship membership; ``region``
    restricts to the authorship's weight on that region (None = whole)."""
    n = len(rec["authors"])
    total = 0.0
    for author in rec["authors"]:
        if not member(author):
            continue
        if region is None:
            total += 1.0 / n
        else:
            total += country_weights(author["countries"], scheme).get(region, 0.0) / n
    return total


def is_international(rec, require_distinct_authors: bool = False) -> bool:
    countries = {c for a in rec["authors"] for c in a["countries"]}
    if len(countries) < 2:
        return False
    if require_distinct_authors and len(rec["authors"]) < 2:
        return False
    return True


def region_pairs(rec, scheme: Scheme, require_distinct_authors: bool = False
                 ) -> set[tuple[str, str]]:
    if not is_international(rec, require_distinct_authors):
        return set()
    countries = {c for a in rec["authors"] for c in a["countries"]}
    regions = {scheme.region_of(c) for c in countries}
    pairs = set()
    for a in regions:
        for b in regions:
            if scheme.rank(a) < scheme.rank(b):
                pairs.add((a, b))
    return pairs
