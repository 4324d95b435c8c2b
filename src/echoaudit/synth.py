"""Deterministic synthetic corpora with planted ground truth.

Two generators share one corpus format (the same one ingest consumes):

``generate``             a polarized corpus: two communities of users, planted
                         influencer hubs, community-biased retweets, original
                         tweets with configurable lurking rates and
                         community-specific domain sharing.
``generate_calibration`` an engagement corpus whose per-action mean AE and
                         log-scale followers/AE correlations hit configured
                         targets: the sample correlation is constructed
                         exactly, then integer action counts are drawn
                         binomially.

All randomness flows from one ``numpy.random.Generator`` seeded with PCG64,
so outputs are byte-identical across runs and platforms for a given seed.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from .errors import InputError
from .blocks import write_columns
from .ingest import (IMPRESSIONS_AVAILABLE_FROM, flat_lines, format_epoch_seconds,
                     make_dir, open_atomic, parse_timestamp, write_json)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_CUTOFF = int((IMPRESSIONS_AVAILABLE_FROM - _EPOCH).total_seconds())

ACTIONS = ("retweet", "reply", "like", "quote")

DEFAULT_ACTION_SHARES = {"retweet": 0.2, "reply": 0.15, "like": 0.6, "quote": 0.05}

LEANING_CLASSES = (
    "ExtremeLeft", "Left", "LeftCenter", "LeastBiased",
    "RightCenter", "Right", "ExtremeRight",
)


# Upper bound of a Poisson mean; NumPy refuses means near 2**63.
_POISSON_MEAN_MAX = 1e6

# Upper bound of a log10 draw's mean plus ten standard deviations: counts
# stay below 1e15, inside what ingest accepts, and what an int64 holds.
_LOG10_MAX = 15.0

# Upper bound of the AE boost; a finite factor keeps every rate, and the
# expected AE written to ground_truth.json, finite.
_AE_BOOST_MAX = 1e6

# Corpus lines formatted and written at a time.  A block's rows are held in
# memory until then, so it stays small: 65,536-line blocks raise a 10k-user
# pipeline's peak RSS from 71 to 108 MB.  A block of the 10k-user corpus is
# about 0.55 MB, so in ``pipeline`` it fits the pipe to ingest
# (``ingest._PIPE_SIZE``) whole; a 4,096-line block, about 1.1 MB, did not.
_BLOCK = 2048


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    """``lo <= value <= hi``; NaN fails every comparison and is rejected."""
    if not (lo <= value <= hi):
        raise InputError(f"{name} must be in [{lo:g}, {hi:g}], got {value!r}")


def _check_log10_pair(name: str, pair: tuple) -> None:
    """A ``(mean, sd)`` pair of log10 draws: both >= 0, mean + 10 sd <= 15."""
    mean, sd = pair
    _check_range(f"{name} mean", mean, 0.0, _LOG10_MAX)
    _check_range(f"{name} sd", sd, 0.0, _LOG10_MAX)
    if mean + 10.0 * sd > _LOG10_MAX:
        raise InputError(f"{name}: mean + 10 sd must be at most {_LOG10_MAX:g}")


@dataclass
class GeneratorConfig:
    seed: int = 7
    n_users: int = 1000
    n_influencers_per_side: int = 10
    p_in: float = 0.35
    p_cross: float = 0.0175
    retweet_extra_mean: float = 0.35          # edge weight = 1 + Poisson(this)
    originals_per_user_mean: float = 2.2
    influencer_originals: int = 2
    lurk_rate_by_group: dict = field(default_factory=lambda: {"A": 0.98, "B": 0.985})
    action_shares: dict = field(default_factory=lambda: dict(DEFAULT_ACTION_SHARES))
    impressions_log10: tuple = (3.5, 0.35)
    follower_log10: tuple = (2.5, 0.5)
    influencer_follower_log10: tuple = (4.5, 0.4)
    url_prob: float = 0.45                    # original carries at least one URL
    second_url_prob: float = 0.15
    unreliable_url_prob: dict = field(default_factory=lambda: {"A": 0.15, "B": 0.25})
    unreliable_ae_boost: float = 2.0
    domain_mix: dict = field(default_factory=lambda: {
        "A": {"ExtremeLeft": 0.15, "Left": 0.4, "LeftCenter": 0.3, "LeastBiased": 0.15},
        "B": {"ExtremeRight": 0.15, "Right": 0.4, "RightCenter": 0.3, "LeastBiased": 0.15},
    })
    domains_per_class: int = 2
    reply_prob: float = 0.12
    pre_cutoff_fraction: float = 0.03         # flavor records, dated before the cutoff
    non_english_fraction: float = 0.03
    date_range: tuple = ("2022-11-22T00:00:00Z", "2023-03-01T00:00:00Z")

    def validate(self) -> None:
        """Reject a config that the generator could not run to the end.

        Besides the structural checks, every number is range-checked, so
        no random draw can raise: means and factors are >= 0, probabilities
        and shares lie in [0, 1], and the ``*_log10`` pairs are checked by
        :func:`_check_log10_pair`.
        """
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        for name in ("p_in", "p_cross", "url_prob", "second_url_prob", "reply_prob",
                     "pre_cutoff_fraction", "non_english_fraction"):
            _check_range(name, getattr(self, name), 0.0, 1.0)
        if not (self.p_in > self.p_cross >= 0):
            raise InputError("need p_in > p_cross >= 0")
        if self.n_users < 2 or self.n_influencers_per_side < 1:
            raise InputError("need at least 2 users and 1 influencer per side")
        if self.influencer_originals < 0:
            raise InputError("influencer_originals must be non-negative")
        if self.domains_per_class < 1:
            raise InputError("domains_per_class must be at least 1")
        for name in ("retweet_extra_mean", "originals_per_user_mean"):
            _check_range(name, getattr(self, name), 0.0, _POISSON_MEAN_MAX)
        _check_range("unreliable_ae_boost", self.unreliable_ae_boost, 0.0, _AE_BOOST_MAX)
        for name in ("impressions_log10", "follower_log10", "influencer_follower_log10"):
            _check_log10_pair(name, getattr(self, name))
        for name in ("lurk_rate_by_group", "unreliable_url_prob", "domain_mix"):
            if set(getattr(self, name)) != {"A", "B"}:
                raise InputError(f"{name} needs exactly the groups A and B")
        if set(self.action_shares) != set(ACTIONS):
            raise InputError(f"action_shares needs exactly the actions {', '.join(ACTIONS)}")
        for label, values in (("lurk rate", self.lurk_rate_by_group),
                              ("unreliable_url_prob", self.unreliable_url_prob),
                              ("action share", self.action_shares)):
            for key, value in values.items():
                _check_range(f"{label} for {key}", value, 0.0, 1.0)
        for group, mix in self.domain_mix.items():
            for cls, share in mix.items():
                _check_range(f"domain mix share {group}/{cls}", share, 0.0, 1.0)
        if abs(sum(self.action_shares.values()) - 1.0) > 1e-9:
            raise InputError("action shares must sum to 1")
        for group, mix in self.domain_mix.items():
            if abs(sum(mix.values()) - 1.0) > 1e-9:
                raise InputError(f"domain mix for {group} must sum to 1")
            for cls in mix:
                if cls not in LEANING_CLASSES:
                    raise InputError(f"unknown leaning class {cls!r}")
        start, end = _parse_range(self.date_range)
        if max(start, _CUTOFF) >= end:
            raise InputError("date_range ends before the impression cutoff")

    def base_rates(self, group: str) -> dict[str, float]:
        active = 1.0 - self.lurk_rate_by_group[group]
        return {a: active * self.action_shares[a] for a in ACTIONS}

    def boosted_tweet_prob(self, group: str) -> float:
        """Probability an original carries at least one unreliable URL."""
        u = self.unreliable_url_prob[group]
        p1 = self.url_prob * (1.0 - self.second_url_prob)
        p2 = self.url_prob * self.second_url_prob
        return p1 * u + p2 * (1.0 - (1.0 - u) ** 2)

    def expected_ae_by_group(self) -> dict[str, dict[str, float]]:
        """Config-implied pooled AE targets, boost effect included."""
        out = {}
        for group in self.lurk_rate_by_group:
            q = self.boosted_tweet_prob(group)
            factor = 1.0 + (self.unreliable_ae_boost - 1.0) * q
            out[group] = {a: r * factor for a, r in self.base_rates(group).items()}
        return out


@dataclass
class CalibrationConfig:
    seed: int = 11
    n_tweets: int = 40_000
    ae_targets: dict = field(default_factory=dict)        # action -> mean AE
    pearson_targets: dict = field(default_factory=dict)   # action -> log-log r
    follower_log10: tuple = (3.0, 0.8)
    impressions_log10: tuple = (5.3, 0.25)
    ae_log10_sigma: float = 0.35
    date_range: tuple = ("2023-01-01T00:00:00Z", "2023-03-01T00:00:00Z")

    def validate(self) -> None:
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        if self.n_tweets < 10:
            raise InputError("calibration needs at least 10 tweets")
        for name in ("follower_log10", "impressions_log10"):
            _check_log10_pair(name, getattr(self, name))
        _check_range("ae_log10_sigma", self.ae_log10_sigma, 0.0, _LOG10_MAX)
        missing = [a for a in ACTIONS if a not in self.ae_targets]
        if missing:
            raise InputError(f"ae_targets missing actions: {missing}")
        missing = [a for a in ACTIONS if a not in self.pearson_targets]
        if missing:
            raise InputError(f"pearson_targets missing actions: {missing}")
        for a, r in self.pearson_targets.items():
            if not (-1.0 < r < 1.0):
                raise InputError(f"pearson target for {a} must be in (-1, 1)")
        for a, m in self.ae_targets.items():
            if not (0.0 < m < 0.5):
                raise InputError(f"ae target for {a} must be in (0, 0.5)")
        start, _ = _parse_range(self.date_range)
        if start < _CUTOFF:
            raise InputError("calibration date_range must start at or after the cutoff")


@dataclass
class GroundTruth:
    community: dict            # account id -> group label
    planted_hubs: list         # influencer ids, strongest first
    target_ae_by_group: dict   # group -> action -> pooled AE target
    target_log_pearson: dict   # action -> r target ({} when not engineered)

    def to_json(self, path: str | Path) -> None:
        # Shallow: ``asdict`` would deep-copy every mapping first.
        write_json(path, {f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class SynthResult:
    corpus_path: Path
    truth_path: Path
    domains_path: Path
    seeds_path: Path
    n_records: int


def _parse_range(date_range: tuple) -> tuple[int, int]:
    """``date_range`` as epoch seconds; bad timestamps raise :class:`InputError`."""
    try:
        start, end = (int((parse_timestamp(ts) - _EPOCH).total_seconds())
                      for ts in date_range)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"date_range: {exc}") from None
    if end <= start:
        raise InputError("date_range end must be after start")
    return start, end


class _DomainPool:
    """Synthetic outlets per leaning class plus unreliable pools."""

    def __init__(self, config: GeneratorConfig):
        self.reliable: dict[str, list[str]] = {}
        classes = sorted({c for mix in config.domain_mix.values() for c in mix})
        for cls in classes:
            slug = cls.lower()
            self.reliable[cls] = [
                f"{slug}-news-{k}.test" for k in range(config.domains_per_class)
            ]
        self.questionable: dict[str, list[tuple[str, str]]] = {
            # group -> [(domain, leaning label)]
            "A": [("tabloid-left-0.test", "Left")],
            "B": [("tabloid-right-0.test", "Right")],
        }
        self.conspiracy = ["deep-rumors-0.test"]

    def rows(self) -> list[tuple[str, str, str]]:
        return sorted([(d, cls, "reliable") for cls, ds in self.reliable.items() for d in ds]
                      + [(d, label, "questionable")
                         for pairs in self.questionable.values() for d, label in pairs]
                      + [(d, "", "conspiracy_pseudoscience") for d in self.conspiracy])

    def unreliable_for(self, group: str) -> list[str]:
        return [d for d, _ in self.questionable[group]] + self.conspiracy


def _write_domain_table(rows: list[tuple[str, str, str]], path: Path) -> None:
    write_columns(path, ("domain", "leaning_label", "reliability"),
                  [[row[k] for row in rows] for k in range(3)])


class _Words:
    """Draws of a PCG64 ``Generator`` made here from the 64-bit words of its
    ``bit_generator.random_raw`` (:attr:`next`), each exactly as the
    ``Generator`` method it stands for would make it, at a fraction of the
    cost of a call to that method.

    ``Generator.random()`` reads one word ``w`` and returns
    ``(w >> 11) * 2**-53``, so ``random() < p`` holds exactly when
    ``w < cut(p)`` (:meth:`cut`).  ``Generator.integers`` is
    :meth:`integers`.  The ``Generator`` methods left in use draw whole
    words too, so they interleave with these; a ``Generator.integers`` call
    would not (see :meth:`integers`).
    """

    def __init__(self, rng: np.random.Generator):
        self.next = rng.bit_generator.random_raw
        self._half = -1     # the buffered high half-word, or -1

    @staticmethod
    def cut(p: float) -> int:
        """The bound below which a word makes ``random() < p``, for
        ``0 <= p <= 1``."""
        return math.ceil(p * 2.0 ** 53) << 11

    def integers(self, lo: int, hi: int) -> int:
        """``int(rng.integers(lo, hi))``, drawn as NumPy draws it.

        A span ``hi - lo`` of 1 draws nothing.  One of up to ``2**32``
        takes a 32-bit half of a word, the low half first, as PCG64's
        ``next_uint32`` does, and keeps the high half for the next such
        draw: the half-word buffer lives here, not in the bit generator, so
        a ``Generator.integers`` call on the same generator, which uses the
        bit generator's own, would put the two out of step.  A larger span
        takes a whole word.  Either way Lemire's multiply-and-reject method
        maps it into the span.
        """
        span = hi - lo
        if span > 0x1_0000_0000:
            threshold = (1 << 64) % span
            scaled = self.next() * span
            while scaled & 0xFFFF_FFFF_FFFF_FFFF < threshold:
                scaled = self.next() * span
            return lo + (scaled >> 64)
        if span == 1:
            return lo
        threshold = 0x1_0000_0000 % span
        while True:
            half = self._half
            if half < 0:
                word = self.next()
                self._half = word >> 32
                half = word & 0xFFFF_FFFF
            else:
                self._half = -1
            scaled = half * span
            if scaled & 0xFFFF_FFFF >= threshold:
                return lo + (scaled >> 32)


def _write_lines(outs: Sequence[TextIO], stamps: list[int], rows: list[tuple],
                 whole_blocks: bool) -> None:
    """Format the lines held in ``stamps`` and ``rows`` (see ``flat_lines``)
    a block of ``_BLOCK`` at a time, write each to every one of ``outs``,
    and drop them; with ``whole_blocks``, a last part block stays held."""
    while rows and (len(rows) >= _BLOCK or not whole_blocks):
        text = flat_lines(format_epoch_seconds(stamps[:_BLOCK]), rows[:_BLOCK])
        for out in outs:
            out.write(text)
        del stamps[:_BLOCK], rows[:_BLOCK]


def generate(config: GeneratorConfig, out_dir: str | Path,
             stream: Optional[TextIO] = None) -> SynthResult:
    """Emit a polarized corpus, its domain table, hub seeds and ground truth.

    The domain table is written first, before any corpus line.  Each block of
    corpus lines also goes to ``stream``, when given, as it is written.
    """
    config.validate()
    out_dir = Path(out_dir)
    make_dir(out_dir)
    rng = np.random.default_rng(config.seed)

    start, end = _parse_range(config.date_range)
    post_lo = max(start, _CUTOFF)

    sides = ("A", "B")
    influencers = {
        side: [f"inf_{side.lower()}_{i:02d}" for i in range(config.n_influencers_per_side)]
        for side in sides
    }
    users = [f"user{i:04d}" for i in range(config.n_users)]
    community = {u: sides[i % 2] for i, u in enumerate(users)}
    for side in sides:
        for inf in influencers[side]:
            community[inf] = side

    pool = _DomainPool(config)
    domains_path = out_dir / "domains.csv"
    _write_domain_table(pool.rows(), domains_path)
    followers: dict[str, int] = {}
    for u in users:
        mu, sg = config.follower_log10
        followers[u] = max(1, int(round(10 ** rng.normal(mu, sg))))
    for side in sides:
        for inf in influencers[side]:
            mu, sg = config.influencer_follower_log10
            followers[inf] = max(1, int(round(10 ** rng.normal(mu, sg))))

    # Per group, what each URL and count draw needs: the leaning classes with
    # the outlets of each and their cumulative weights, the unreliable
    # outlets, and each action's rate without and with the boost, in ACTIONS
    # order.  A class is drawn as ``Generator.choice(len(classes), p=weights)``
    # draws it, from one ``random()`` searched in the normalised cumulative
    # weights, without checking and summing the weights again on every call.
    outlets, cdf, unreliable, probs = {}, {}, {}, {}
    for g in sides:
        classes = sorted(config.domain_mix[g])
        outlets[g] = [pool.reliable[c] for c in classes]
        cumulative = np.cumsum([config.domain_mix[g][c] for c in classes])
        cdf[g] = (cumulative / cumulative[-1]).tolist()
        unreliable[g] = pool.unreliable_for(g)
        rates = config.base_rates(g)
        probs[g] = tuple(tuple(min(1.0, rates[a] * factor) for a in ACTIONS)
                         for factor in (1.0, config.unreliable_ae_boost))
    imps_mu, imps_sg = config.impressions_log10
    hubs = [inf for side in sides for inf in influencers[side]]
    hub_counts = dict.fromkeys(hubs, 0)
    # Every draw of the loop below comes from these.
    random, normal, poisson, binomial = rng.random, rng.normal, rng.poisson, rng.binomial
    words = _Words(rng)
    word, integers, cut = words.next, words.integers, words.cut
    url_cut, second_url_cut, reply_cut = map(
        cut, (config.url_prob, config.second_url_prob, config.reply_prob))
    unreliable_cut = {g: cut(p) for g, p in config.unreliable_url_prob.items()}
    edge_cuts = {g: ((g, cut(config.p_in)), ("B" if g == "A" else "A", cut(config.p_cross)))
                 for g in sides}

    # Influencers post their originals first (they are also retweet
    # targets); then each user posts originals, retweets influencers and
    # sometimes replies.  Each record's fields wait in ``rows`` (as
    # flat_lines takes them), its time as epoch seconds in ``stamps``, until
    # a block of lines is written; tweet_no counts the records, url_serial
    # the URLs.
    corpus_path = out_dir / "corpus.jsonl"
    with open_atomic(corpus_path) as fh:
        outs = (fh,) if stream is None else (fh, stream)
        rows: list[tuple] = []
        stamps: list[int] = []
        tweet_no = url_serial = 0
        for k, author in enumerate(hubs + users):
            is_user = k >= len(hubs)
            group = community[author]
            n_followers = followers[author]
            n_originals = (int(poisson(config.originals_per_user_mean)) if is_user
                           else config.influencer_originals)
            for _ in range(n_originals):
                imps = max(1, int(round(10 ** normal(imps_mu, imps_sg))))
                urls, boosted = [], False
                if word() < url_cut:
                    for _ in range(2 if word() < second_url_cut else 1):
                        if word() < unreliable_cut[group]:
                            choices, boosted = unreliable[group], True
                        else:
                            choices = outlets[group][bisect_right(cdf[group], random())]
                        url_serial += 1
                        urls.append(f"https://www.{choices[integers(0, len(choices))]}"
                                    f"/story/{url_serial}")
                retweets, replies, likes, quotes = [int(binomial(imps, p))
                                                    for p in probs[group][boosted]]
                tweet_no += 1
                rows.append((f"t{tweet_no:07d}", author, "en", "original", None, imps,
                             likes, replies, retweets, quotes, urls, n_followers))
                stamps.append(integers(post_lo, end))
            if not is_user:
                continue
            for side, edge_cut in edge_cuts[group]:
                for inf in influencers[side]:
                    if word() < edge_cut:
                        hub_counts[inf] += 1
                        for _ in range(1 + int(poisson(config.retweet_extra_mean))):
                            tweet_no += 1
                            rows.append((f"t{tweet_no:07d}", author, "en", "retweet", inf,
                                         0, 0, 0, 0, 0, (), n_followers))
                            stamps.append(integers(post_lo, end))
            if word() < reply_cut:
                tweet_no += 1
                # The time is drawn before the impressions, here and below.
                stamps.append(integers(post_lo, end))
                rows.append((f"t{tweet_no:07d}", author, "en", "reply", None,
                             integers(1, 200), 0, 0, 0, 0, (), n_followers))
            _write_lines(outs, stamps, rows, whole_blocks=True)

        # Flavor records exercising the date and language filters.
        n_pre = int(round(config.pre_cutoff_fraction * tweet_no))
        n_foreign = int(round(config.non_english_fraction * tweet_no))
        for _ in range(n_pre if start < _CUTOFF else 0):
            u = users[integers(0, len(users))]
            tweet_no += 1
            stamps.append(integers(start, _CUTOFF))
            rows.append((f"t{tweet_no:07d}", u, "en", "original", None,
                         0, 0, 0, 0, 0, (), followers[u]))
            _write_lines(outs, stamps, rows, whole_blocks=True)
        for k in range(n_foreign):
            u = users[integers(0, len(users))]
            tweet_no += 1
            stamps.append(integers(post_lo, end))
            rows.append((f"t{tweet_no:07d}", u, ("de", "fr", "es")[k % 3], "original", None,
                         integers(1, 500), 0, 0, 0, 0, (), followers[u]))
            _write_lines(outs, stamps, rows, whole_blocks=True)
        _write_lines(outs, stamps, rows, whole_blocks=False)

    hubs.sort(key=lambda inf: (-hub_counts[inf], inf))
    seeds_path = out_dir / "seeds.txt"
    with open_atomic(seeds_path) as fh:
        for inf in hubs:
            fh.write(inf + "\n")

    truth = GroundTruth(
        community=community,
        planted_hubs=hubs,
        target_ae_by_group=config.expected_ae_by_group(),
        target_log_pearson={},
    )
    truth_path = out_dir / "ground_truth.json"
    truth.to_json(truth_path)

    return SynthResult(
        corpus_path=corpus_path,
        truth_path=truth_path,
        domains_path=domains_path,
        seeds_path=seeds_path,
        n_records=tweet_no,
    )


def generate_calibration(config: CalibrationConfig, out_dir: str | Path,
                         stream: Optional[TextIO] = None) -> SynthResult:
    """Emit an engagement corpus hitting the configured AE and correlation
    targets.  As in :func:`generate`, the (empty) domain table comes first
    and ``stream`` gets each block of corpus lines.

    The per-tweet action rates are log-normal around each AE target with the
    sample correlation against log10 followers made exact by projecting the
    noise component orthogonal to the follower axis; the rate vector is then
    rescaled so its sample mean equals the target exactly.  Integer counts
    are binomial draws at those rates, which keeps the realized means
    unbiased and perturbs the correlations only through thin binomial noise.
    """
    config.validate()
    out_dir = Path(out_dir)
    make_dir(out_dir)
    rng = np.random.default_rng(config.seed)
    n = config.n_tweets

    mu_f, sg_f = config.follower_log10
    followers = np.maximum(1, np.round(10 ** rng.normal(mu_f, sg_f, n))).astype(np.int64)
    x = np.log10(followers)
    xc = x - x.mean()
    x_norm = float(np.linalg.norm(xc))
    if x_norm == 0.0:
        raise InputError("followers degenerate; increase spread or n")
    x_hat = xc / x_norm

    mu_i, sg_i = config.impressions_log10
    impressions = np.maximum(1, np.round(10 ** rng.normal(mu_i, sg_i, n))).astype(np.int64)

    counts: dict[str, np.ndarray] = {}
    for a in ACTIONS:
        r = config.pearson_targets[a]
        eps = rng.standard_normal(n)
        eps -= eps.mean()
        eps -= x_hat * float(x_hat @ eps)
        eps_norm = float(np.linalg.norm(eps))
        if eps_norm == 0.0:
            raise InputError("noise degenerate; increase n")
        z = r * x_hat + math.sqrt(1.0 - r * r) * (eps / eps_norm)
        z *= math.sqrt(n) * config.ae_log10_sigma   # unit vectors -> sd scale
        p = 10.0 ** z
        p *= config.ae_targets[a] / p.mean()        # exact sample mean
        p = np.minimum(p, 1.0)
        counts[a] = rng.binomial(impressions, p)

    start, end = _parse_range(config.date_range)
    stamps = rng.integers(start, end, n)

    domains_path = out_dir / "domains.csv"
    _write_domain_table([], domains_path)
    corpus_path = out_dir / "corpus.jsonl"
    with open_atomic(corpus_path) as fh:
        outs = (fh,) if stream is None else (fh, stream)
        for lo in range(0, n, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            columns = zip(range(lo, n), impressions[block].tolist(),
                          counts["like"][block].tolist(), counts["reply"][block].tolist(),
                          counts["retweet"][block].tolist(),
                          counts["quote"][block].tolist(), followers[block].tolist())
            text = flat_lines(format_epoch_seconds(stamps[block]), (
                (f"c{i:07d}", f"cal{i:07d}", "en", "original", None, imps, likes,
                 replies, retweets, quotes, (), n_followers)
                for i, imps, likes, replies, retweets, quotes, n_followers in columns))
            for out in outs:
                out.write(text)

    truth = GroundTruth(
        community={},
        planted_hubs=[],
        target_ae_by_group={"all": dict(config.ae_targets)},
        target_log_pearson=dict(config.pearson_targets),
    )
    truth_path = out_dir / "ground_truth.json"
    truth.to_json(truth_path)

    seeds_path = out_dir / "seeds.txt"
    with open_atomic(seeds_path):
        pass

    return SynthResult(
        corpus_path=corpus_path,
        truth_path=truth_path,
        domains_path=domains_path,
        seeds_path=seeds_path,
        n_records=n,
    )


def mini_config() -> GeneratorConfig:
    """Small corpus preset behind the bundled fixture files."""
    return GeneratorConfig(
        seed=1234,
        n_users=150,
        n_influencers_per_side=5,
        p_in=0.5,
        p_cross=0.025,
        originals_per_user_mean=2.2,
        influencer_originals=2,
        url_prob=0.55,
    )


def default_config() -> GeneratorConfig:
    return GeneratorConfig()


_CONFIG_MODES = {"polarized": GeneratorConfig, "calibration": CalibrationConfig}


def _fits(value, template) -> bool:
    """Whether a JSON value has the type of a config field's default."""
    if isinstance(template, dict):
        inner = next(iter(template.values()), 0.0)
        return isinstance(value, dict) and all(_fits(v, inner) for v in value.values())
    if isinstance(template, tuple):
        return (isinstance(value, list) and len(value) == len(template)
                and all(_fits(v, t) for v, t in zip(value, template)))
    if isinstance(value, bool):
        return False
    if isinstance(template, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(template))


def _describe(template, plural: bool = False) -> str:
    """The JSON type that :func:`_fits` accepts for ``template``, in words."""
    if isinstance(template, dict):
        inner = _describe(next(iter(template.values()), 0.0), plural=True)
        return f"{'objects' if plural else 'an object'} of {inner}"
    if isinstance(template, tuple):
        inner = _describe(template[0], plural=True)
        return f"{'lists' if plural else 'a list'} of {len(template)} {inner}"
    return {float: ("a number", "numbers"), int: ("an integer", "integers"),
            str: ("a string", "strings")}[type(template)][plural]


def config_from_json(path: str | Path):
    """Load either generator config from a JSON file (``mode`` selects).

    A missing or unreadable file, invalid JSON (nesting too deep for the
    decoder included), a value that is not an object, an unknown mode, an
    unknown key and a value whose JSON type does not match its field all
    raise :class:`InputError`.  An integer counts as
    a number; ``true``/``false`` do not.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"{path}: config must be a JSON object")
    mode = raw.pop("mode", "polarized")
    config_cls = _CONFIG_MODES.get(mode) if isinstance(mode, str) else None
    if config_cls is None:
        raise InputError(f"unknown generator mode {mode!r}")
    defaults = {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(config_cls)
    }
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise InputError(f"{path}: unknown {mode} config key(s): {', '.join(unknown)}")
    for key, value in raw.items():
        template = defaults[key]
        if not _fits(value, template):
            raise InputError(f"{path}: config key {key!r} must be {_describe(template)}")
        if isinstance(template, tuple):
            raw[key] = tuple(value)
    return config_cls(**raw)
