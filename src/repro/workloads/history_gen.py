"""Generative history sampling — choices driven by the sigma semantics.

The paper defines sigma *descriptively* over a user's history; for the
mining and ranking-quality experiments we need the *generative*
counterpart: simulate a user whose choices realise given sigmas, so the
estimator/miner can be tested against known ground truth.

The model per episode:

1. a context pattern (a set of context feature keys) is drawn;
2. a candidate slate is drawn from the catalogue;
3. independently for every planted rule whose context features all
   hold and whose preference feature is offered, a Bernoulli(sigma)
   draw decides whether the user picks a document with that feature
   (uniformly among the offering candidates) — group choices arise
   naturally when several rules fire (Section 3.2's "whole workday
   morning" case).

Under this model the availability-conditioned estimator of
:mod:`repro.history.sigma` is unbiased for each planted sigma
(when preference features do not overlap between rules).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import HistoryError
from repro.history.episodes import Candidate, Episode
from repro.history.log import HistoryLog

__all__ = ["PlantedRule", "ContextPattern", "sample_history", "sample_workday_mornings"]


@dataclass(frozen=True)
class PlantedRule:
    """A ground-truth rule at feature-key granularity."""

    context_feature: str
    preference_feature: str
    sigma: float


@dataclass(frozen=True)
class ContextPattern:
    """A recurring context with a sampling weight."""

    features: frozenset[str]
    weight: float = 1.0


def sample_history(
    rules: list[PlantedRule],
    catalogue: list[Candidate],
    patterns: list[ContextPattern],
    episodes: int,
    seed: int = 23,
    slate_size: int | None = None,
) -> HistoryLog:
    """Sample a history realising the planted sigmas.

    Parameters
    ----------
    rules:
        Ground truth (context feature, preference feature, sigma).
    catalogue:
        The document pool candidates are drawn from.
    patterns:
        Context patterns with weights (at least one).
    episodes:
        Number of episodes to sample.
    seed:
        RNG seed (the run is fully deterministic).
    slate_size:
        Candidates per episode (default: the whole catalogue).
    """
    if not patterns:
        raise HistoryError("sample_history needs at least one context pattern")
    if not catalogue:
        raise HistoryError("sample_history needs a non-empty catalogue")
    rng = random.Random(seed)
    weights = [pattern.weight for pattern in patterns]
    log = HistoryLog()
    for index in range(episodes):
        pattern = rng.choices(patterns, weights=weights, k=1)[0]
        if slate_size is None or slate_size >= len(catalogue):
            slate = list(catalogue)
        else:
            slate = rng.sample(catalogue, k=slate_size)
        chosen: set[str] = set()
        for rule in rules:
            if rule.context_feature not in pattern.features:
                continue
            offering = [c for c in slate if c.has(rule.preference_feature)]
            if not offering:
                continue
            if rng.random() < rule.sigma:
                chosen.add(rng.choice(offering).doc_id)
        log.record(
            Episode.build(
                context=pattern.features,
                candidates=slate,
                chosen=chosen,
                label=f"episode-{index:05d}",
            )
        )
    return log


def sample_workday_mornings(
    episodes: int = 200,
    traffic_sigma: float = 0.8,
    weather_sigma: float = 0.6,
    seed: int = 42,
) -> HistoryLog:
    """The Figure 1 workload: traffic 80 %, weather 60 % of mornings.

    Every episode offers a fresh traffic bulletin, a fresh weather
    bulletin and a movie; the user picks bulletins per the sigmas
    (possibly both — the paper's group choice).

    Examples
    --------
    >>> log = sample_workday_mornings(episodes=10, seed=1)
    >>> len(log)
    10
    """
    rules = [
        PlantedRule("WorkdayMorning", "TrafficBulletin", traffic_sigma),
        PlantedRule("WorkdayMorning", "WeatherBulletin", weather_sigma),
    ]
    catalogue = [
        Candidate.of("traffic_today", "TrafficBulletin"),
        Candidate.of("weather_today", "WeatherBulletin"),
        Candidate.of("some_movie", "Movie"),
    ]
    patterns = [ContextPattern(frozenset({"WorkdayMorning"}))]
    return sample_history(rules, catalogue, patterns, episodes, seed)
