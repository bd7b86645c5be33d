"""Wikipedia application: stream generation and incremental metrics."""

import pytest

from repro.apps.wikipedia import (
    RevisionStream,
    WikipediaAnalyzer,
    T_METRICS_ARTICLE,
    T_METRICS_USER,
    T_REVISION,
)
from repro.db import Database


@pytest.fixture
def db():
    return Database()


@pytest.fixture
def analyzer(db):
    return WikipediaAnalyzer(db)


class TestRevisionStream:
    def test_versions_increase_per_article(self):
        stream = RevisionStream(n_articles=5, n_users=3, seed=1)
        revisions = stream.take(50)
        seen = {}
        for rev in revisions:
            expected = seen.get(rev.article_id, 0) + 1
            assert rev.version == expected
            seen[rev.article_id] = expected

    def test_revision_ids_sequential(self):
        revisions = RevisionStream(seed=2).take(20)
        assert [r.revision_id for r in revisions] == list(range(1, 21))

    def test_deterministic_given_seed(self):
        a = RevisionStream(seed=3).take(10)
        b = RevisionStream(seed=3).take(10)
        assert [(r.article_id, r.text) for r in a] == [
            (r.article_id, r.text) for r in b
        ]

    def test_edits_change_text(self):
        stream = RevisionStream(n_articles=1, seed=4)
        revisions = stream.take(5)
        texts = [r.text for r in revisions]
        assert len(set(texts)) > 1

    def test_popularity_skew(self):
        revisions = RevisionStream(n_articles=20, seed=5).take(300)
        counts = {}
        for rev in revisions:
            counts[rev.article_id] = counts.get(rev.article_id, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        assert ordered[0] > ordered[-1]  # heavy tail


class TestIncrementalMetrics:
    def test_single_revision(self, db, analyzer):
        (rev,) = RevisionStream(n_articles=1, seed=6).take(1)
        analyzer.process(rev)
        analyzer.flush_user_metrics()
        article = db.table(T_METRICS_ARTICLE).by_key(rev.article_id)
        assert article["versions"] == 1
        assert article["contributors"] == 1
        assert article["length"] == len(rev.text.split())
        user = db.table(T_METRICS_USER).by_key(rev.user_id)
        assert user["inserted"] == len(rev.text.split())
        assert user["remaining"] == user["inserted"]
        assert user["durability"] == 1.0

    def test_revisions_stored(self, db, analyzer):
        for rev in RevisionStream(seed=7).take(10):
            analyzer.process(rev)
        assert len(db.table(T_REVISION)) == 10

    def test_contribution_table_matches_text_length(self, db, analyzer):
        stream = RevisionStream(n_articles=2, seed=8)
        last_text = {}
        for rev in stream.take(20):
            analyzer.process(rev)
            last_text[rev.article_id] = rev.text
        for article_id, text in last_text.items():
            table = analyzer.contribution_table(article_id)
            assert len(table) == len(text.split())

    def test_contributors_counted_distinctly(self, db, analyzer):
        stream = RevisionStream(n_articles=1, n_users=10, seed=9)
        revisions = stream.take(15)
        for rev in revisions:
            analyzer.process(rev)
        article = db.table(T_METRICS_ARTICLE).by_key(revisions[0].article_id)
        surviving_authors = set(analyzer.contribution_table(revisions[0].article_id))
        assert article["contributors"] == len(surviving_authors)

    def test_durability_below_one_for_overwritten_users(self, db, analyzer):
        for rev in RevisionStream(n_articles=3, n_users=5, seed=10).take(150):
            analyzer.process(rev)
        analyzer.flush_user_metrics()
        durabilities = [
            row["durability"]
            for row in analyzer.user_metrics()
            if row["durability"] is not None
        ]
        assert durabilities
        assert all(0.0 <= d for d in durabilities)
        assert any(d < 1.0 for d in durabilities)  # someone got overwritten


    def test_a_flush_is_one_insert_and_one_update_statement(self, db, analyzer):
        fired = []
        db.on(T_METRICS_USER, ("insert", "update"), fired.append)
        stream = RevisionStream(n_articles=3, n_users=6, seed=12)
        for rev in stream.take(40):
            analyzer.process(rev)
        analyzer.flush_user_metrics()
        (first,) = fired
        users = len(first.inserted)
        assert users > 1 and not first.updated
        for rev in stream.take(40):
            analyzer.process(rev)
        analyzer.flush_user_metrics()
        # Whatever the number of users: the new ones, then the known ones.
        assert [(len(c.inserted), len(c.updated)) for c in fired[1:]] in (
            [(0, users)],
            [(len(db.table(T_METRICS_USER)) - users, 0), (0, users)],
        )


class TestIncrementalEqualsRecompute:
    def test_metrics_match_full_recomputation(self, db, analyzer):
        """The Wikipedia claim: maintaining metrics incrementally gives
        exactly the full-recomputation answer."""
        for rev in RevisionStream(n_articles=5, n_users=4, seed=11).take(80):
            analyzer.process(rev)
        analyzer.flush_user_metrics()
        incremental_articles = sorted(
            (r["article_id"], r["versions"], r["contributors"], r["length"], r["churn"])
            for r in analyzer.article_metrics()
        )
        incremental_users = sorted(
            (r["user_id"], r["inserted"], r["remaining"], r["edits"])
            for r in analyzer.user_metrics()
        )
        analyzer.recompute_all()
        recomputed_articles = sorted(
            (r["article_id"], r["versions"], r["contributors"], r["length"], r["churn"])
            for r in analyzer.article_metrics()
        )
        recomputed_users = sorted(
            (r["user_id"], r["inserted"], r["remaining"], r["edits"])
            for r in analyzer.user_metrics()
        )
        assert incremental_articles == recomputed_articles
        assert incremental_users == recomputed_users

    def test_incremental_is_cheaper_than_recompute(self, db, analyzer):
        import time

        revisions = RevisionStream(n_articles=10, n_users=5, seed=12).take(120)
        for rev in revisions[:-1]:
            analyzer.process(rev)
        start = time.perf_counter()
        analyzer.process(revisions[-1])
        incremental_time = time.perf_counter() - start
        start = time.perf_counter()
        analyzer.recompute_all()
        recompute_time = time.perf_counter() - start
        assert incremental_time < recompute_time
