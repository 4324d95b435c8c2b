"""Domain leaning/reliability table and per-user leaning from shared URLs.

Leaning labels map to fixed numeric scores:

    ExtremeLeft -1.0, Left -0.66, LeftCenter -0.33, LeastBiased 0.0,
    RightCenter 0.33, Right 0.66, ExtremeRight 1.0

Reliability is an orthogonal attribute (reliable / questionable /
conspiracy_pseudoscience); questionable and conspiracy domains may carry no
leaning label at all.  URL-to-domain matching is exact on the registrable
domain, resolved against a bundled public-suffix snapshot (no network calls,
no fuzzy matching).
"""

from __future__ import annotations

import csv
import logging
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional
from urllib.parse import urlsplit

import numpy as np

from .errors import InputError
from .ingest import open_maybe_gzip, tally

if TYPE_CHECKING:
    from .engagement import OriginalsTable

log = logging.getLogger(__name__)

LEANING_SCORES: dict[str, float] = {
    "ExtremeLeft": -1.0,
    "Left": -0.66,
    "LeftCenter": -0.33,
    "LeastBiased": 0.0,
    "RightCenter": 0.33,
    "Right": 0.66,
    "ExtremeRight": 1.0,
}

LEANING_ORDER = tuple(LEANING_SCORES)  # left to right

RELIABILITY_CLASSES = ("reliable", "questionable", "conspiracy_pseudoscience")

_NORM = re.compile(r"[^a-z]+")
_LEANING_BY_KEY = {label.lower(): label for label in LEANING_SCORES}


def _canon_leaning(label: str) -> Optional[str]:
    return _LEANING_BY_KEY.get(_NORM.sub("", label.lower()))


def _canon_reliability(value: str) -> Optional[str]:
    key = re.sub(r"[\s\-]+", "_", value.strip().lower())
    return key if key in RELIABILITY_CLASSES else None


@dataclass(frozen=True)
class DomainProfile:
    domain: str
    leaning_label: Optional[str]
    leaning_score: Optional[float]
    reliability: str


class UserLeanings(NamedTuple):
    """Per-author leanings as columns, authors in sorted id order."""
    user_id: list[str]
    n_urls: np.ndarray                   # int64
    score: list[Optional[float]]         # None for an author without one


class PublicSuffixes:
    """Registrable-domain resolution against a public-suffix snapshot.

    Implements the standard rule semantics: longest matching rule wins,
    ``*.``-prefixed rules match one extra label, ``!``-prefixed exceptions
    shorten the suffix by one label, and an implicit ``*`` rule makes any
    unknown top-level label a suffix on its own.  Each host's registrable
    domain is resolved once and kept for the life of the instance.
    """

    def __init__(self, rules: Iterable[str]):
        self._registrable: dict[str, Optional[str]] = {}
        self.exact: set[str] = set()
        self.wildcard: set[str] = set()
        self.exception: set[str] = set()
        for rule in rules:
            rule = rule.strip().lower()
            if not rule or rule.startswith("//"):
                continue
            if rule.startswith("!"):
                self.exception.add(rule[1:])
            elif rule.startswith("*."):
                self.wildcard.add(rule[2:])
            else:
                self.exact.add(rule)

    @classmethod
    def bundled(cls) -> "PublicSuffixes":
        text = (
            resources.files("echoaudit.data")
            .joinpath("public_suffix_snapshot.dat")
            .read_text(encoding="utf-8")
        )
        return cls(text.splitlines())

    def suffix_length(self, labels: list[str]) -> int:
        """Number of trailing labels forming the public suffix."""
        best = 1  # implicit "*" rule
        for take in range(1, len(labels) + 1):
            candidate = ".".join(labels[-take:])
            if candidate in self.exception:
                return take - 1
            if candidate in self.exact and take > best:
                best = take
            if take >= 2 and ".".join(labels[-(take - 1):]) in self.wildcard:
                if take > best:
                    best = take
        return best

    def registrable_domain(self, host: str) -> Optional[str]:
        try:
            return self._registrable[host]
        except KeyError:
            domain = self._registrable[host] = self._resolve(host)
            return domain

    def _resolve(self, host: str) -> Optional[str]:
        host = host.strip(".").lower()
        if not host or re.fullmatch(r"[0-9.]+", host) or ":" in host:
            return None  # IP literals have no registrable domain
        labels = host.split(".")
        if any(not lab or not re.fullmatch(r"[a-z0-9-]+", lab) for lab in labels):
            return None
        take = self.suffix_length(labels)
        if len(labels) <= take:
            return None  # the host *is* a public suffix
        return ".".join(labels[-(take + 1):])


_bundled_suffixes: Optional[PublicSuffixes] = None


def _suffixes() -> PublicSuffixes:
    global _bundled_suffixes
    if _bundled_suffixes is None:
        _bundled_suffixes = PublicSuffixes.bundled()
    return _bundled_suffixes


# The common form of a URL: ``http://`` or ``https://``, a host of lower-case
# ASCII letters, digits, dots and hyphens (so no userinfo, port or brackets),
# then a path, query or fragment, or the end.  Its host is the
# ``urlsplit(url).hostname`` that extract_domain resolves, so URLs of one
# such host share a domain.
PLAIN_URL = re.compile(r"https?://([a-z0-9.-]+)(?:[/?#]|\Z)")


def extract_domain(url: str, suffixes: Optional[PublicSuffixes] = None) -> Optional[str]:
    """Registrable domain of an absolute URL, or None when unresolvable.

    Strips scheme, credentials, port, path and query; ``www.`` collapses with
    every other subdomain.  Total function: malformed input returns None.
    """
    if not isinstance(url, str) or not url.strip():
        return None
    text = url.strip()
    if "://" not in text:
        if text.startswith("//"):
            text = "http:" + text
        elif " " in text:
            return None
        else:
            text = "http://" + text
    try:
        host = urlsplit(text).hostname
    except ValueError:
        return None
    if not host:
        return None
    return (suffixes or _suffixes()).registrable_domain(host)


def load_domain_table(path: str | Path) -> dict[str, DomainProfile]:
    """Load the ``domain,leaning_label,reliability`` CSV.

    Domains are lowercased and deduplicated (last row wins, with a warning);
    rows with an unknown label or reliability, or with a domain that holds
    whitespace or a line break (no URL host can), are skipped and logged.
    An empty leaning label is allowed and yields a profile without a score.
    Each warning names the line its row starts on: a quoted field may span
    lines.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"domain table not found: {path}")
    table: dict[str, DomainProfile] = {}
    with open_maybe_gzip(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            columns = next(rows, None)
            required = {"domain", "leaning_label", "reliability"}
            if columns is None or not required.issubset(columns):
                raise InputError(
                    f"domain table must have columns {sorted(required)}; "
                    f"got {columns}"
                )
            next_line = rows.line_num + 1
            for fields in rows:
                row_no, next_line = next_line, rows.line_num + 1
                if not fields:
                    continue
                row = dict(zip(columns, fields))
                domain = (row.get("domain") or "").strip().lower()
                if not domain:
                    log.warning("%s:%d: empty domain; row skipped", path, row_no)
                    continue
                if len(domain.split()) > 1:
                    log.warning("%s:%d: domain %r holds whitespace; row skipped",
                                path, row_no, domain)
                    continue
                reliability = _canon_reliability(row.get("reliability") or "")
                if reliability is None:
                    log.warning(
                        "%s:%d: unknown reliability %r; row skipped",
                        path, row_no, row.get("reliability"),
                    )
                    continue
                raw_label = (row.get("leaning_label") or "").strip()
                label: Optional[str] = None
                if raw_label:
                    label = _canon_leaning(raw_label)
                    if label is None:
                        log.warning(
                            "%s:%d: unknown leaning label %r; row skipped",
                            path, row_no, raw_label,
                        )
                        continue
                if domain in table:
                    log.warning("%s:%d: duplicate domain %r; keeping the last row",
                                path, row_no, domain)
                table[domain] = DomainProfile(
                    domain=domain,
                    leaning_label=label,
                    leaning_score=None if label is None else LEANING_SCORES[label],
                    reliability=reliability,
                )
        except csv.Error as exc:
            # The reader has counted the line it failed on.
            raise InputError(f"{path}:{rows.line_num}: {exc}") from None
    return table


def user_leaning(
    originals: "OriginalsTable",
    unmatched: Optional[Counter] = None,
) -> UserLeanings:
    """Mean leaning score over each author's matched URL occurrences.

    One row of :class:`UserLeanings` per author.  Every shared
    URL counts with multiplicity, from outlets of every reliability.  URLs
    that match no table row or whose profile carries no leaning score are
    ignored and counted.  An author's scores add in record order, then URL
    order.
    """
    if unmatched is None:
        unmatched = Counter()
    profiles = originals.profiles()
    score = np.array([np.nan if p.leaning_score is None else p.leaning_score
                      for p in profiles], dtype=np.float64)
    tally(unmatched, "url_not_in_table", originals.unmatched_urls)
    records, codes = originals.matched_urls()
    owners = originals.author_codes[records]
    labelled = ~np.isnan(score[codes])
    tally(unmatched, "no_leaning_label", codes.size - int(np.count_nonzero(labelled)))
    codes, owners = codes[labelled], owners[labelled]
    ids, rank = originals.sorted_authors()
    totals = np.bincount(owners, weights=score[codes], minlength=rank.size)
    n_urls = np.bincount(owners, minlength=rank.size)
    order = np.argsort(rank)
    n_urls = n_urls[order]
    return UserLeanings(ids, n_urls, [total / n if n else None for n, total in zip(
        n_urls.tolist(), totals[order].tolist())])


def user_class_counts(originals: "OriginalsTable") -> dict[str, dict[str, int]]:
    """Per-author counts of URL shares by leaning class (with multiplicity).

    Authors without a share of a labelled domain are left out.
    """
    n_classes = len(LEANING_ORDER)
    cls = np.array([-1 if p.leaning_label is None else LEANING_ORDER.index(p.leaning_label)
                    for p in originals.profiles()], dtype=np.int64)
    records, codes = originals.matched_urls()
    classes = cls[codes]
    owners = originals.author_codes[records]
    labelled = classes >= 0
    cells = owners[labelled] * n_classes + classes[labelled]
    counts = np.bincount(cells, minlength=len(originals.author_ids) * n_classes)
    counts = counts.reshape(-1, n_classes)
    out: dict[str, dict[str, int]] = {}
    for uid, row in zip(originals.author_ids, counts.tolist()):
        if any(row):
            out[uid] = {label: n for label, n in zip(LEANING_ORDER, row) if n}
    return out
