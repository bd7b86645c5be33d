"""The Wikipedia application (Section III-b, Figure 2).

Four elementary tasks, straight from the paper:

(i)   compute the differences between successive versions of each article;
(ii)  compute a contribution table storing, at each token index, the
      identifier of the user who entered it;
(iii) for each article, compute the number of distinct effective
      contributors;
(iv)  compute the total contribution (over all contribution tables) of
      each user -- including the *durability* metric: characters remaining
      in the latest version divided by characters inserted.

"A total recomputation of the aggregation is out of reach, because change
frequency is too high... updates received at a given moment only affect a
tiny part of the database" -- so the analyzer maintains all metrics
incrementally, one revision at a time; a full-recompute path exists for
verification and for the IVM-vs-recompute ablation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..db.database import Database
from ..db.expression import col
from ..db.schema import TID, Column
from ..db.types import FLOAT, INTEGER, TEXT
from .diff import annotate_contributions, diff_stats

T_ARTICLE = "wiki_article"
T_REVISION = "wiki_revision"
T_METRICS_ARTICLE = "wiki_article_metrics"
T_METRICS_USER = "wiki_user_metrics"

#: A tiny vocabulary; tokens stand in for characters at coarser grain.
_WORDS = (
    "data analysis visual flow process table query update view index "
    "graph node edge layout color screen page user edit article history"
).split()


def install_schema(database: Database) -> None:
    """Create the Wikipedia entity and metric tables (idempotent)."""
    if not database.has_table(T_ARTICLE):
        database.create_table(
            T_ARTICLE,
            [
                Column("id", INTEGER, nullable=False),
                Column("title", TEXT, nullable=False),
            ],
            primary_key="id",
        )
    if not database.has_table(T_REVISION):
        database.create_table(
            T_REVISION,
            [
                Column("id", INTEGER, nullable=False),
                Column("article_id", INTEGER, nullable=False),
                Column("user_id", INTEGER, nullable=False),
                Column("version", INTEGER, nullable=False),
                Column("text", TEXT, nullable=False),
            ],
            primary_key="id",
        )
    if not database.has_table(T_METRICS_ARTICLE):
        database.create_table(
            T_METRICS_ARTICLE,
            [
                Column("article_id", INTEGER, nullable=False),
                Column("versions", INTEGER, nullable=False, default=0),
                Column("contributors", INTEGER, nullable=False, default=0),
                Column("length", INTEGER, nullable=False, default=0),
                Column("churn", INTEGER, nullable=False, default=0),
            ],
            primary_key="article_id",
        )
    if not database.has_table(T_METRICS_USER):
        database.create_table(
            T_METRICS_USER,
            [
                Column("user_id", INTEGER, nullable=False),
                Column("inserted", INTEGER, nullable=False, default=0),
                Column("remaining", INTEGER, nullable=False, default=0),
                Column("edits", INTEGER, nullable=False, default=0),
                Column("durability", FLOAT),
            ],
            primary_key="user_id",
        )


@dataclass
class Revision:
    """One edit event in the synthetic stream."""

    revision_id: int
    article_id: int
    user_id: int
    version: int
    text: str


class RevisionStream:
    """Synthetic Wikipedia edit stream.

    Articles and users follow heavy-tailed popularity (a few hot pages
    and prolific editors), matching why incremental maintenance wins:
    each edit touches one article.  Edits insert, delete, and replace
    token runs.
    """

    def __init__(
        self,
        n_articles: int = 50,
        n_users: int = 30,
        seed: int = 11,
        initial_tokens: int = 60,
    ) -> None:
        self.rng = random.Random(seed)
        self.n_articles = n_articles
        self.n_users = n_users
        self.initial_tokens = initial_tokens
        self._texts: dict[int, list[str]] = {}
        self._versions: dict[int, int] = {}
        self._next_revision = 1
        # Zipf-ish weights.
        self._article_weights = [1.0 / (i + 1) for i in range(n_articles)]
        self._user_weights = [1.0 / (i + 1) ** 0.8 for i in range(n_users)]

    def _pick(self, weights: list[float]) -> int:
        return self.rng.choices(range(len(weights)), weights=weights, k=1)[0]

    def revisions(self) -> Iterator[Revision]:
        """Infinite stream of revisions (first touch creates the page)."""
        while True:
            article = self._pick(self._article_weights) + 1
            user = self._pick(self._user_weights) + 1
            tokens = self._texts.get(article)
            if tokens is None:
                tokens = [
                    self.rng.choice(_WORDS) for _ in range(self.initial_tokens)
                ]
            else:
                tokens = self._edit(list(tokens))
            self._texts[article] = tokens
            version = self._versions.get(article, 0) + 1
            self._versions[article] = version
            revision = Revision(
                revision_id=self._next_revision,
                article_id=article,
                user_id=user,
                version=version,
                text=" ".join(tokens),
            )
            self._next_revision += 1
            yield revision

    def take(self, count: int) -> list[Revision]:
        stream = self.revisions()
        return [next(stream) for _ in range(count)]

    def _edit(self, tokens: list[str]) -> list[str]:
        """Apply a few random span edits."""
        for _ in range(self.rng.randint(1, 3)):
            action = self.rng.random()
            if action < 0.5 or not tokens:
                # Insert a run.
                position = self.rng.randint(0, len(tokens))
                run = [self.rng.choice(_WORDS) for _ in range(self.rng.randint(1, 8))]
                tokens[position:position] = run
            elif action < 0.8:
                # Delete a run.
                start = self.rng.randrange(len(tokens))
                length = self.rng.randint(1, min(6, len(tokens) - start))
                del tokens[start : start + length]
            else:
                # Replace a run.
                start = self.rng.randrange(len(tokens))
                length = self.rng.randint(1, min(4, len(tokens) - start))
                tokens[start : start + length] = [
                    self.rng.choice(_WORDS) for _ in range(length)
                ]
        return tokens


@dataclass
class _ArticleState:
    """In-memory incremental state per article (the contribution table)."""

    tokens: list[str] = field(default_factory=list)
    authors: list[int] = field(default_factory=list)
    versions: int = 0
    churn: int = 0


class WikipediaAnalyzer:
    """Maintains tasks (i)-(iv) incrementally over a revision feed."""

    def __init__(self, database: Database) -> None:
        self.database = database
        install_schema(database)
        self._articles: dict[int, _ArticleState] = {}
        #: user_id -> [inserted, edits]; `remaining` is derived per flush.
        self._inserted: dict[int, int] = {}
        self._edits: dict[int, int] = {}
        self.revisions_processed = 0

    # ------------------------------------------------------------------
    def process(self, revision: Revision, store_revision: bool = True) -> None:
        """Fold one revision into all metric tables."""
        if store_revision:
            self._store(revision)
        state = self._articles.setdefault(revision.article_id, _ArticleState())
        new_tokens = revision.text.split()
        # Task (i): diff between successive versions.
        equal, inserted, deleted = diff_stats(state.tokens, new_tokens)
        # Task (ii): carry the contribution table across the edit.
        state.authors = annotate_contributions(
            state.tokens, state.authors, new_tokens, revision.user_id
        )
        state.tokens = new_tokens
        state.versions += 1
        state.churn += inserted + deleted
        self._inserted[revision.user_id] = (
            self._inserted.get(revision.user_id, 0) + inserted
        )
        self._edits[revision.user_id] = self._edits.get(revision.user_id, 0) + 1
        # Task (iii): distinct effective contributors of this article.
        contributors = len(set(state.authors)) if state.authors else 0
        self._upsert_article(
            revision.article_id,
            state.versions,
            contributors,
            len(state.tokens),
            state.churn,
        )
        self.revisions_processed += 1

    def _store(self, revision: Revision) -> None:
        if self.database.table(T_ARTICLE).by_key(revision.article_id) is None:
            self.database.insert(
                T_ARTICLE,
                {
                    "id": revision.article_id,
                    "title": f"Article {revision.article_id}",
                },
            )
        self.database.insert(
            T_REVISION,
            {
                "id": revision.revision_id,
                "article_id": revision.article_id,
                "user_id": revision.user_id,
                "version": revision.version,
                "text": revision.text,
            },
        )

    def _upsert_article(
        self, article_id: int, versions: int, contributors: int, length: int, churn: int
    ) -> None:
        values = {
            "article_id": article_id,
            "versions": versions,
            "contributors": contributors,
            "length": length,
            "churn": churn,
        }
        if self.database.table(T_METRICS_ARTICLE).by_key(article_id) is None:
            self.database.insert(T_METRICS_ARTICLE, values)
        else:
            self.database.update(
                T_METRICS_ARTICLE,
                {k: v for k, v in values.items() if k != "article_id"},
                col("article_id") == article_id,
            )

    # ------------------------------------------------------------------
    def flush_user_metrics(self) -> None:
        """Task (iv): recompute per-user remaining counts and durability.

        ``remaining`` must scan the current contribution tables (cheap:
        they live in memory); ``inserted``/``edits`` are maintained
        incrementally.  Durability follows the paper: the ratio of a
        user's surviving characters to the characters they inserted
        (the paper words it as an inverse; we store the survival ratio,
        which carries the same information and reads naturally).
        """
        remaining: dict[int, int] = {}
        for state in self._articles.values():
            for author in state.authors:
                remaining[author] = remaining.get(author, 0) + 1
        users = set(self._inserted) | set(remaining)
        table = self.database.table(T_METRICS_USER)
        fresh: list[dict[str, Any]] = []
        changed: dict[int, dict[str, Any]] = {}
        for user_id in sorted(users):
            inserted = self._inserted.get(user_id, 0)
            stay = remaining.get(user_id, 0)
            values = {
                "inserted": inserted,
                "remaining": stay,
                "edits": self._edits.get(user_id, 0),
                "durability": stay / inserted if inserted > 0 else None,
            }
            stored = table.by_key(user_id)
            if stored is None:
                fresh.append({"user_id": user_id, **values})
            else:
                changed[stored[TID]] = values
        # One statement each, whatever the number of users.
        self.database.insert_many(T_METRICS_USER, fresh)
        self.database.update_by_tids(T_METRICS_USER, changed)

    # ------------------------------------------------------------------
    def recompute_all(self) -> None:
        """Full recomputation from the stored revision log.

        The path the paper says is "out of reach" at Wikipedia scale;
        kept for verification (incremental must match) and the A1
        ablation bench.
        """
        self._articles.clear()
        self._inserted.clear()
        self._edits.clear()
        self.revisions_processed = 0
        self.database.delete(T_METRICS_ARTICLE)
        self.database.delete(T_METRICS_USER)
        revisions = sorted(
            self.database.table(T_REVISION).rows(),
            key=lambda r: (r["article_id"], r["version"]),
        )
        # Global order must follow revision ids for user counters.
        revisions.sort(key=lambda r: r["id"])
        for row in revisions:
            self.process(
                Revision(
                    revision_id=row["id"],
                    article_id=row["article_id"],
                    user_id=row["user_id"],
                    version=row["version"],
                    text=row["text"],
                ),
                store_revision=False,
            )
        self.flush_user_metrics()

    # ------------------------------------------------------------------
    def article_metrics(self) -> list[dict[str, Any]]:
        return [dict(r) for r in self.database.table(T_METRICS_ARTICLE).rows()]

    def user_metrics(self) -> list[dict[str, Any]]:
        return [dict(r) for r in self.database.table(T_METRICS_USER).rows()]

    def contribution_table(self, article_id: int) -> list[int]:
        """Task (ii) output for one article: author per token index."""
        state = self._articles.get(article_id)
        return list(state.authors) if state else []
