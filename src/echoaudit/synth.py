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
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InputError
from .ingest import IMPRESSIONS_AVAILABLE_FROM, format_timestamp

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

ACTIONS = ("retweet", "reply", "like", "quote")

DEFAULT_ACTION_SHARES = {"retweet": 0.2, "reply": 0.15, "like": 0.6, "quote": 0.05}

LEANING_CLASSES = (
    "ExtremeLeft", "Left", "LeftCenter", "LeastBiased",
    "RightCenter", "Right", "ExtremeRight",
)


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
        if not (self.p_in > self.p_cross >= 0):
            raise InputError("need p_in > p_cross >= 0")
        if self.n_users < 2 or self.n_influencers_per_side < 1:
            raise InputError("need at least 2 users and 1 influencer per side")
        for group, rate in self.lurk_rate_by_group.items():
            if not (0.0 <= rate <= 1.0):
                raise InputError(f"lurk rate for {group} must be in [0, 1]")
        if abs(sum(self.action_shares.values()) - 1.0) > 1e-9:
            raise InputError("action shares must sum to 1")
        for group, mix in self.domain_mix.items():
            if abs(sum(mix.values()) - 1.0) > 1e-9:
                raise InputError(f"domain mix for {group} must sum to 1")
            for cls in mix:
                if cls not in LEANING_CLASSES:
                    raise InputError(f"unknown leaning class {cls!r}")

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
        if self.n_tweets < 10:
            raise InputError("calibration needs at least 10 tweets")
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


@dataclass
class GroundTruth:
    community: dict            # account id -> group label
    planted_hubs: list         # influencer ids, strongest first
    target_ae_by_group: dict   # group -> action -> pooled AE target
    target_log_pearson: dict   # action -> r target ({} when not engineered)

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "GroundTruth":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(
            community=raw["community"],
            planted_hubs=raw["planted_hubs"],
            target_ae_by_group=raw["target_ae_by_group"],
            target_log_pearson=raw["target_log_pearson"],
        )


@dataclass(frozen=True)
class SynthResult:
    corpus_path: Path
    truth_path: Path
    domains_path: Path
    seeds_path: Path
    n_records: int


def _parse_range(date_range: tuple) -> tuple[int, int]:
    from .ingest import parse_timestamp

    start = int((parse_timestamp(date_range[0]) - _EPOCH).total_seconds())
    end = int((parse_timestamp(date_range[1]) - _EPOCH).total_seconds())
    if end <= start:
        raise InputError("date_range end must be after start")
    return start, end


def _timestamp(rng: np.random.Generator, lo: int, hi: int) -> str:
    return format_timestamp(
        datetime.fromtimestamp(int(rng.integers(lo, hi)), tz=timezone.utc)
    )


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
        rows = []
        for cls in sorted(self.reliable):
            for d in self.reliable[cls]:
                rows.append((d, cls, "reliable"))
        for group in sorted(self.questionable):
            for d, label in self.questionable[group]:
                rows.append((d, label, "questionable"))
        for d in self.conspiracy:
            rows.append((d, "", "conspiracy_pseudoscience"))
        return sorted(rows)

    def unreliable_for(self, group: str) -> list[str]:
        return [d for d, _ in self.questionable[group]] + self.conspiracy


def _write_domain_table(rows: list[tuple[str, str, str]], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("domain,leaning_label,reliability\n")
        for domain, label, reliability in rows:
            fh.write(f"{domain},{label},{reliability}\n")


def generate(config: GeneratorConfig, out_dir: str | Path) -> SynthResult:
    """Emit a polarized corpus, its domain table, hub seeds and ground truth."""
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    start, end = _parse_range(config.date_range)
    cutoff = int((IMPRESSIONS_AVAILABLE_FROM - _EPOCH).total_seconds())
    post_lo = max(start, cutoff)
    if post_lo >= end:
        raise InputError("date_range ends before the impression cutoff")

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
    followers: dict[str, int] = {}
    for u in users:
        mu, sg = config.follower_log10
        followers[u] = max(1, int(round(10 ** rng.normal(mu, sg))))
    for side in sides:
        for inf in influencers[side]:
            mu, sg = config.influencer_follower_log10
            followers[inf] = max(1, int(round(10 ** rng.normal(mu, sg))))

    records: list[dict] = []
    tweet_no = 0

    def next_id() -> str:
        nonlocal tweet_no
        tweet_no += 1
        return f"t{tweet_no:07d}"

    def emit(author: str, kind: str, ts: str, lang: str = "en",
             retweeted: Optional[str] = None, impressions: int = 0,
             counts: Optional[dict[str, int]] = None, urls: Optional[list[str]] = None):
        counts = counts or {}
        records.append({
            "tweet_id": next_id(),
            "author_id": author,
            "created_at": ts,
            "lang": lang,
            "kind": kind,
            "retweeted_author_id": retweeted,
            "impressions": int(impressions),
            "likes": int(counts.get("like", 0)),
            "replies": int(counts.get("reply", 0)),
            "retweets": int(counts.get("retweet", 0)),
            "quotes": int(counts.get("quote", 0)),
            "urls": urls or [],
            "author_followers": followers[author],
        })

    url_serial = 0

    def draw_urls(group: str) -> tuple[list[str], bool]:
        nonlocal url_serial
        if rng.random() >= config.url_prob:
            return [], False
        n_urls = 2 if rng.random() < config.second_url_prob else 1
        urls = []
        boosted = False
        mix = config.domain_mix[group]
        classes = sorted(mix)
        weights = np.asarray([mix[c] for c in classes])
        for _ in range(n_urls):
            if rng.random() < config.unreliable_url_prob[group]:
                choices = pool.unreliable_for(group)
                domain = choices[int(rng.integers(len(choices)))]
                boosted = True
            else:
                cls = classes[int(rng.choice(len(classes), p=weights))]
                choices = pool.reliable[cls]
                domain = choices[int(rng.integers(len(choices)))]
            url_serial += 1
            urls.append(f"https://www.{domain}/story/{url_serial}")
        return urls, boosted

    def emit_original(author: str, group: str) -> None:
        mu, sg = config.impressions_log10
        imps = max(1, int(round(10 ** rng.normal(mu, sg))))
        urls, boosted = draw_urls(group)
        rates = config.base_rates(group)
        factor = config.unreliable_ae_boost if boosted else 1.0
        counts = {
            a: int(rng.binomial(imps, min(1.0, rates[a] * factor))) for a in ACTIONS
        }
        emit(author, "original", _timestamp(rng, post_lo, end),
             impressions=imps, counts=counts, urls=urls)

    # Influencer originals first (they are also retweet targets).
    for side in sides:
        for inf in influencers[side]:
            for _ in range(config.influencer_originals):
                emit_original(inf, side)

    # Per-user content: originals, retweets of influencers, occasional replies.
    hub_counts: dict[str, int] = {}
    for u in users:
        group = community[u]
        other = "B" if group == "A" else "A"
        for _ in range(int(rng.poisson(config.originals_per_user_mean))):
            emit_original(u, group)
        for side, p_edge in ((group, config.p_in), (other, config.p_cross)):
            for inf in influencers[side]:
                if rng.random() < p_edge:
                    weight = 1 + int(rng.poisson(config.retweet_extra_mean))
                    hub_counts[inf] = hub_counts.get(inf, 0) + 1
                    for _ in range(weight):
                        emit(u, "retweet", _timestamp(rng, post_lo, end), retweeted=inf)
        if rng.random() < config.reply_prob:
            emit(u, "reply", _timestamp(rng, post_lo, end),
                 impressions=int(rng.integers(1, 200)))

    # Flavor records exercising the date and language filters.
    n_pre = int(round(config.pre_cutoff_fraction * len(records)))
    n_foreign = int(round(config.non_english_fraction * len(records)))
    if start < cutoff:
        for k in range(n_pre):
            u = users[int(rng.integers(len(users)))]
            emit(u, "original", _timestamp(rng, start, cutoff),
                 impressions=0, counts={})
    for k in range(n_foreign):
        u = users[int(rng.integers(len(users)))]
        lang = ("de", "fr", "es")[k % 3]
        emit(u, "original", _timestamp(rng, post_lo, end), lang=lang,
             impressions=int(rng.integers(1, 500)))

    corpus_path = out_dir / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")

    hubs = sorted(
        (inf for side in sides for inf in influencers[side]),
        key=lambda inf: (-hub_counts.get(inf, 0), inf),
    )
    seeds_path = out_dir / "seeds.txt"
    with open(seeds_path, "w", encoding="utf-8") as fh:
        for inf in hubs:
            fh.write(inf + "\n")

    domains_path = out_dir / "domains.csv"
    _write_domain_table(pool.rows(), domains_path)

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
        n_records=len(records),
    )


def generate_calibration(config: CalibrationConfig, out_dir: str | Path) -> SynthResult:
    """Emit an engagement corpus hitting the configured AE and correlation
    targets.

    The per-tweet action rates are log-normal around each AE target with the
    sample correlation against log10 followers made exact by projecting the
    noise component orthogonal to the follower axis; the rate vector is then
    rescaled so its sample mean equals the target exactly.  Integer counts
    are binomial draws at those rates, which keeps the realized means
    unbiased and perturbs the correlations only through thin binomial noise.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    cutoff = int((IMPRESSIONS_AVAILABLE_FROM - _EPOCH).total_seconds())
    if start < cutoff:
        raise InputError("calibration date_range must start at or after the cutoff")
    stamps = rng.integers(start, end, n)

    corpus_path = out_dir / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i in range(n):
            rec = {
                "tweet_id": f"c{i:07d}",
                "author_id": f"cal{i:07d}",
                "created_at": format_timestamp(
                    datetime.fromtimestamp(int(stamps[i]), tz=timezone.utc)
                ),
                "lang": "en",
                "kind": "original",
                "retweeted_author_id": None,
                "impressions": int(impressions[i]),
                "likes": int(counts["like"][i]),
                "replies": int(counts["reply"][i]),
                "retweets": int(counts["retweet"][i]),
                "quotes": int(counts["quote"][i]),
                "urls": [],
                "author_followers": int(followers[i]),
            }
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")

    truth = GroundTruth(
        community={},
        planted_hubs=[],
        target_ae_by_group={"all": dict(config.ae_targets)},
        target_log_pearson=dict(config.pearson_targets),
    )
    truth_path = out_dir / "ground_truth.json"
    truth.to_json(truth_path)

    domains_path = out_dir / "domains.csv"
    _write_domain_table([], domains_path)
    seeds_path = out_dir / "seeds.txt"
    seeds_path.write_text("", encoding="utf-8")

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


def config_from_json(path: str | Path):
    """Load either generator config from a JSON file (``mode`` selects)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    mode = raw.pop("mode", "polarized")
    for key in ("date_range", "impressions_log10", "follower_log10",
                "influencer_follower_log10"):
        if key in raw and isinstance(raw[key], list):
            raw[key] = tuple(raw[key])
    if mode == "polarized":
        return GeneratorConfig(**raw)
    if mode == "calibration":
        return CalibrationConfig(**raw)
    raise InputError(f"unknown generator mode {mode!r}")
