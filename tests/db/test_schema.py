"""Table schemas: definition, validation, serialization."""

import pytest

from repro.db import Column, ForeignKey, TableSchema
from repro.db.types import INTEGER, TEXT
from repro.errors import ConstraintViolation, SchemaError, TypeMismatchError


def make_schema(**kwargs):
    return TableSchema(
        "people",
        [
            Column("id", INTEGER, nullable=False),
            Column("name", TEXT, nullable=False),
            Column("nickname", TEXT),
            Column("age", INTEGER, default=0),
        ],
        primary_key="id",
        **kwargs,
    )


class TestDefinition:
    def test_column_names(self):
        assert make_schema().column_names == ("id", "name", "nickname", "age")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INTEGER), Column("a", TEXT)])

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_bad_table_name(self):
        with pytest.raises(SchemaError):
            TableSchema("bad name!", [Column("a", INTEGER)])

    def test_hidden_prefix_column_rejected(self):
        with pytest.raises(SchemaError):
            Column("__tid__", INTEGER)

    def test_unknown_primary_key(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INTEGER)], primary_key="b")

    def test_unknown_unique_column(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INTEGER)], unique=["b"])

    def test_unknown_fk_column(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", INTEGER)],
                foreign_keys=[ForeignKey("missing", "other", "id")],
            )

    def test_bad_default_fails_eagerly(self):
        with pytest.raises(TypeMismatchError):
            Column("a", INTEGER, default="not a number")


class TestRowValidation:
    def test_complete_row(self):
        row = make_schema().validate_row({"id": 1, "name": "Ann"})
        assert row == {"id": 1, "name": "Ann", "nickname": None, "age": 0}

    def test_default_applied(self):
        row = make_schema().validate_row({"id": 1, "name": "Ann"})
        assert row["age"] == 0

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row({"id": 1, "name": "A", "oops": 2})

    def test_not_null_enforced(self):
        with pytest.raises(ConstraintViolation):
            make_schema().validate_row({"id": 1})

    def test_type_coercion(self):
        row = make_schema().validate_row({"id": "7", "name": "Bo"})
        assert row["id"] == 7

    def test_type_error_names_column(self):
        with pytest.raises(TypeMismatchError, match="people.id"):
            make_schema().validate_row({"id": "xyz", "name": "Bo"})


class TestUpdateValidation:
    def test_partial_update(self):
        out = make_schema().validate_update({"age": 30})
        assert out == {"age": 30}

    def test_update_unknown_column(self):
        with pytest.raises(SchemaError):
            make_schema().validate_update({"oops": 1})

    def test_update_null_into_not_null(self):
        with pytest.raises(ConstraintViolation):
            make_schema().validate_update({"name": None})


    def test_update_coerces_and_names_the_column(self):
        assert make_schema().validate_update({"age": "30", "nickname": None}) == {
            "age": 30,
            "nickname": None,
        }
        with pytest.raises(TypeMismatchError, match="people.age"):
            make_schema().validate_update({"age": True})

    def test_exact_typed_value_is_stored_without_a_call(self, monkeypatch):
        def refuse(self, value):
            raise AssertionError(f"coerce called for {value!r}")

        schema = make_schema()
        monkeypatch.setattr(type(INTEGER), "coerce", refuse)
        monkeypatch.setattr(type(TEXT), "coerce", refuse)
        assert schema.validate_update({"age": 3, "name": "Bo"}) == {"age": 3, "name": "Bo"}


class TestSerialization:
    def test_round_trip(self):
        schema = TableSchema(
            "t",
            [Column("a", INTEGER, nullable=False), Column("b", TEXT, default="x")],
            primary_key="a",
            unique=[("b",)],
            foreign_keys=[ForeignKey("a", "other", "id")],
        )
        restored = TableSchema.from_dict(schema.to_dict())
        assert restored.name == "t"
        assert restored.column_names == ("a", "b")
        assert restored.primary_key == "a"
        assert restored.unique == (("b",),)
        assert restored.foreign_keys[0].ref_table == "other"
        assert restored.column("b").default == "x"
        assert not restored.column("a").nullable
