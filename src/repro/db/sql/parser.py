"""Recursive-descent parser for the SQL subset.

Grammar (informal):

    statement   := select | insert | update | delete | create | drop
    select      := SELECT [DISTINCT] items FROM table [joins] [WHERE expr]
                   [GROUP BY exprs [HAVING expr]] [ORDER BY order_items]
                   [LIMIT expr [OFFSET expr]]
                   [(UNION [ALL] | EXCEPT) select]
    insert      := INSERT INTO name [(cols)] (VALUES tuples | select)
    update      := UPDATE name SET assignments [WHERE expr]
    delete      := DELETE FROM name [WHERE expr]
    create      := CREATE TABLE [IF NOT EXISTS] name (coldefs)
    drop        := DROP TABLE [IF EXISTS] name

Expressions use the usual precedence:
OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < additive < multiplicative
< unary minus < primary.
"""

from __future__ import annotations

from typing import Optional

from ...errors import SQLSyntaxError
from .ast import (
    ColumnDef,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    ExplainStmt,
    InsertStmt,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStmt,
    SqlBetween,
    SqlBinary,
    SqlCall,
    SqlColumn,
    SqlExpr,
    SqlIn,
    SqlIsNull,
    SqlLike,
    SqlLiteral,
    SqlParam,
    SqlUnary,
    Statement,
    TableRef,
    UpdateStmt,
)
from .lexer import Token, tokenize

_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.param_count = 0

    # -- token helpers --------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def check_keyword(self, *names: str) -> bool:
        return self.current.is_keyword(*names)

    def accept_keyword(self, *names: str) -> bool:
        if self.check_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> None:
        if not self.accept_keyword(name):
            raise SQLSyntaxError(
                f"expected {name}, found {self.current.value!r}",
                self.current.position,
            )

    def accept_punct(self, value: str) -> bool:
        token = self.current
        if token.kind == "PUNCT" and token.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            raise SQLSyntaxError(
                f"expected {value!r}, found {self.current.value!r}",
                self.current.position,
            )

    def accept_op(self, *values: str) -> Optional[str]:
        token = self.current
        if token.kind == "OP" and token.value in values:
            self.advance()
            return token.value
        return None

    def expect_ident(self) -> str:
        token = self.current
        if token.kind == "IDENT":
            self.advance()
            return token.value
        # Aggregate names are soft keywords: usable as column names.
        if token.is_keyword(*_AGGREGATES):
            self.advance()
            return token.value.lower()
        raise SQLSyntaxError(
            f"expected identifier, found {token.value!r}", token.position
        )

    # -- statements -----------------------------------------------------
    def parse_statement(self) -> Statement:
        if self.check_keyword("EXPLAIN"):
            self.advance()
            analyze = self.accept_keyword("ANALYZE")
            # LINEAGE is a soft keyword (still usable as an identifier
            # elsewhere): EXPLAIN LINEAGE SELECT ... captures provenance.
            lineage = False
            if (
                not analyze
                and self.current.kind == "IDENT"
                and self.current.value.upper() == "LINEAGE"
            ):
                self.advance()
                lineage = True
            if not self.check_keyword("SELECT"):
                raise SQLSyntaxError(
                    "EXPLAIN supports SELECT statements only",
                    self.current.position,
                )
            start = self.current.position
            stmt: Statement = ExplainStmt(
                self.parse_select(),
                self.text[start:],
                analyze=analyze,
                lineage=lineage,
            )
        elif self.check_keyword("SELECT"):
            stmt = self.parse_select()
        elif self.check_keyword("INSERT"):
            stmt = self.parse_insert()
        elif self.check_keyword("UPDATE"):
            stmt = self.parse_update()
        elif self.check_keyword("DELETE"):
            stmt = self.parse_delete()
        elif self.check_keyword("CREATE"):
            stmt = self.parse_create()
        elif self.check_keyword("DROP"):
            stmt = self.parse_drop()
        else:
            raise SQLSyntaxError(
                f"unsupported statement starting with {self.current.value!r}",
                self.current.position,
            )
        self.accept_punct(";")
        if self.current.kind != "EOF":
            raise SQLSyntaxError(
                f"trailing input {self.current.value!r}", self.current.position
            )
        return stmt

    def parse_select(self) -> SelectStmt:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        table: Optional[TableRef] = None
        joins: list[JoinClause] = []
        if self.accept_keyword("FROM"):
            table = self.parse_table_ref()
            while True:
                kind = None
                if self.accept_keyword("JOIN"):
                    kind = "inner"
                elif self.check_keyword("INNER") or self.check_keyword("LEFT"):
                    if self.accept_keyword("INNER"):
                        kind = "inner"
                    else:
                        self.expect_keyword("LEFT")
                        self.accept_keyword("OUTER")
                        kind = "left"
                    self.expect_keyword("JOIN")
                if kind is None:
                    break
                jtable = self.parse_table_ref()
                self.expect_keyword("ON")
                left = self.parse_column_ref()
                token = self.current
                if not (token.kind == "OP" and token.value == "="):
                    raise SQLSyntaxError(
                        "only equi-joins are supported", token.position
                    )
                self.advance()
                right = self.parse_column_ref()
                joins.append(JoinClause(jtable, kind, left, right))
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: list[SqlExpr] = []
        having: Optional[SqlExpr] = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())
            if self.accept_keyword("HAVING"):
                having = self.parse_expr()
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                order_by.append(self.parse_order_item())
        limit = offset = None
        if self.accept_keyword("LIMIT"):
            limit = self.parse_expr()
            if self.accept_keyword("OFFSET"):
                offset = self.parse_expr()
        compound = None
        if self.check_keyword("UNION", "EXCEPT"):
            op = self.advance().value
            if op == "UNION" and self.accept_keyword("ALL"):
                op = "UNION ALL"
            compound = (op, self.parse_select())
        return SelectStmt(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
            compound=compound,
        )

    def parse_select_item(self) -> SelectItem:
        token = self.current
        if token.kind == "OP" and token.value == "*":
            self.advance()
            return SelectItem(expr=None, alias=None, star=True)
        # ``t.*``
        if (
            token.kind == "IDENT"
            and self.tokens[self.pos + 1].kind == "PUNCT"
            and self.tokens[self.pos + 1].value == "."
            and self.tokens[self.pos + 2].kind == "OP"
            and self.tokens[self.pos + 2].value == "*"
        ):
            table = self.expect_ident()
            self.expect_punct(".")
            self.advance()  # '*'
            return SelectItem(expr=None, alias=None, star=True, star_table=table)
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.expect_ident()
        return SelectItem(expr=expr, alias=alias)

    def parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.expect_ident()
        return TableRef(name=name, alias=alias)

    def parse_column_ref(self) -> SqlColumn:
        first = self.expect_ident()
        if self.accept_punct("."):
            return SqlColumn(name=self.expect_ident(), table=first)
        return SqlColumn(name=first)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr=expr, ascending=ascending)

    def parse_insert(self) -> InsertStmt:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.accept_punct("("):
            columns.append(self.expect_ident())
            while self.accept_punct(","):
                columns.append(self.expect_ident())
            self.expect_punct(")")
        if self.check_keyword("SELECT"):
            select = self.parse_select_only()
            return InsertStmt(table=table, columns=tuple(columns), rows=(), select=select)
        self.expect_keyword("VALUES")
        rows: list[tuple[SqlExpr, ...]] = []
        while True:
            self.expect_punct("(")
            values = [self.parse_expr()]
            while self.accept_punct(","):
                values.append(self.parse_expr())
            self.expect_punct(")")
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return InsertStmt(table=table, columns=tuple(columns), rows=tuple(rows))

    def parse_select_only(self) -> SelectStmt:
        """Parse a SELECT used as a component (no trailing-input check)."""
        return self.parse_select()

    def parse_update(self) -> UpdateStmt:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments: list[tuple[str, SqlExpr]] = []
        while True:
            name = self.expect_ident()
            if self.accept_op("=") is None:
                raise SQLSyntaxError("expected '=' in SET", self.current.position)
            assignments.append((name, self.parse_expr()))
            if not self.accept_punct(","):
                break
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return UpdateStmt(table=table, assignments=tuple(assignments), where=where)

    def parse_delete(self) -> DeleteStmt:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return DeleteStmt(table=table, where=where)

    def parse_create(self) -> CreateTableStmt:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        table = self.expect_ident()
        self.expect_punct("(")
        columns = [self.parse_column_def()]
        while self.accept_punct(","):
            columns.append(self.parse_column_def())
        self.expect_punct(")")
        return CreateTableStmt(
            table=table, columns=tuple(columns), if_not_exists=if_not_exists
        )

    def parse_column_def(self) -> ColumnDef:
        name = self.expect_ident()
        token = self.current
        if token.kind == "IDENT":
            type_name = self.expect_ident()
        else:
            raise SQLSyntaxError(
                f"expected type name, found {token.value!r}", token.position
            )
        not_null = primary_key = unique = False
        references = None
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
            elif self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
            elif self.accept_keyword("UNIQUE"):
                unique = True
            elif self.accept_keyword("REFERENCES"):
                ref_table = self.expect_ident()
                self.expect_punct("(")
                ref_column = self.expect_ident()
                self.expect_punct(")")
                references = (ref_table, ref_column)
            else:
                break
        return ColumnDef(
            name=name,
            type_name=type_name,
            not_null=not_null,
            primary_key=primary_key,
            unique=unique,
            references=references,
        )

    def parse_drop(self) -> DropTableStmt:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return DropTableStmt(table=self.expect_ident(), if_exists=if_exists)

    # -- expressions ----------------------------------------------------
    def parse_expr(self) -> SqlExpr:
        return self.parse_or()

    def parse_or(self) -> SqlExpr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = SqlBinary("OR", left, self.parse_and())
        return left

    def parse_and(self) -> SqlExpr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = SqlBinary("AND", left, self.parse_not())
        return left

    def parse_not(self) -> SqlExpr:
        if self.accept_keyword("NOT"):
            return SqlUnary("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> SqlExpr:
        left = self.parse_additive()
        op = self.accept_op("=", "!=", "<>", "<", "<=", ">", ">=")
        if op is not None:
            return SqlBinary(op, left, self.parse_additive())
        negate = False
        if self.check_keyword("NOT"):
            # lookahead: NOT IN / NOT BETWEEN / NOT LIKE
            nxt = self.tokens[self.pos + 1]
            if nxt.is_keyword("IN", "BETWEEN", "LIKE"):
                self.advance()
                negate = True
        if self.accept_keyword("IN"):
            self.expect_punct("(")
            if self.check_keyword("SELECT"):
                sub = self.parse_select_only()
                self.expect_punct(")")
                return SqlIn(left, values=None, subquery=sub, negate=negate)
            values = [self.parse_expr()]
            while self.accept_punct(","):
                values.append(self.parse_expr())
            self.expect_punct(")")
            return SqlIn(left, values=tuple(values), subquery=None, negate=negate)
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return SqlBetween(left, low, high, negate=negate)
        if self.accept_keyword("LIKE"):
            return SqlLike(left, self.parse_additive(), negate=negate)
        if self.accept_keyword("IS"):
            is_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return SqlIsNull(left, negate=is_negated)
        return left

    def parse_additive(self) -> SqlExpr:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return left
            left = SqlBinary(op, left, self.parse_multiplicative())

    def parse_multiplicative(self) -> SqlExpr:
        left = self.parse_unary()
        while True:
            op = self.accept_op("*", "/", "%")
            if op is None:
                return left
            left = SqlBinary(op, left, self.parse_unary())

    def parse_unary(self) -> SqlExpr:
        if self.accept_op("-"):
            return SqlUnary("-", self.parse_unary())
        self.accept_op("+")  # unary plus is a no-op
        return self.parse_primary()

    def parse_primary(self) -> SqlExpr:
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return SqlLiteral(float(text))
            return SqlLiteral(int(text))
        if token.kind == "STRING":
            self.advance()
            return SqlLiteral(token.value)
        if token.kind == "PUNCT" and token.value == "?":
            self.advance()
            param = SqlParam(self.param_count)
            self.param_count += 1
            return param
        if token.is_keyword("NULL"):
            self.advance()
            return SqlLiteral(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return SqlLiteral(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return SqlLiteral(False)
        if token.is_keyword(*_AGGREGATES):
            nxt = self.tokens[self.pos + 1]
            if not (nxt.kind == "PUNCT" and nxt.value == "("):
                # Soft keyword used as a column name (e.g. a column `count`).
                return self.parse_column_ref()
            name = self.advance().value
            self.expect_punct("(")
            if self.current.kind == "OP" and self.current.value == "*":
                self.advance()
                self.expect_punct(")")
                return SqlCall(name, args=(), star=True)
            distinct = self.accept_keyword("DISTINCT")
            arg = self.parse_expr()
            self.expect_punct(")")
            return SqlCall(name, args=(arg,), distinct=distinct)
        if token.kind == "PUNCT" and token.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.kind == "IDENT":
            # Function call or column reference.
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "PUNCT" and nxt.value == "(":
                name = self.expect_ident()
                self.expect_punct("(")
                args: list[SqlExpr] = []
                if not (self.current.kind == "PUNCT" and self.current.value == ")"):
                    args.append(self.parse_expr())
                    while self.accept_punct(","):
                        args.append(self.parse_expr())
                self.expect_punct(")")
                return SqlCall(name.upper(), args=tuple(args))
            return self.parse_column_ref()
        raise SQLSyntaxError(
            f"unexpected token {token.value!r} in expression", token.position
        )


def parse(text: str) -> Statement:
    """Parse one SQL statement."""
    return _Parser(text).parse_statement()


def parse_select(text: str) -> SelectStmt:
    """Parse text that must be a SELECT (used by view definitions)."""
    stmt = parse(text)
    if not isinstance(stmt, SelectStmt):
        raise SQLSyntaxError("expected a SELECT statement")
    return stmt
