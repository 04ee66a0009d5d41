"""Recursive-descent parser for the surface language.

Grammar (EBNF; ``;`` terminators optional everywhere)::

    program    := statement*
    statement  := "add" funcdef
                | "commit" | "design" | "ncs" | "metrics" | "resolve"
                | "help" | "undo" | "redo" | "history" | "worlds"
                | "check" | "stats"
                | "trace" ("on" | "off" | "show" [ "--dot" STRING ])
                | "deadline" [ NUMBER | "off" ]
                | "insert" NAME "(" value "," value ")"
                | "delete" NAME "(" value "," value ")"
                | "replace" NAME "(" value "," value ")"
                      "with" "(" value "," value ")"
                | "truth" NAME "(" value "," value ")"
                | "prob" NAME "(" value "," value ")"
                | "query" qexpr "(" value ")"
                | "pairs" qexpr
                | "show" (NAME | "all")
                | "save" STRING | "load" STRING | "dot" STRING
                | "checkpoint" STRING
                | "recover" STRING [ "strict" | "salvage" ]
                | "guard" ("on" | "off")
                | "constraint" "include" colref "in" colref
                | "constraint" "range" colref NUMBER NUMBER
                | "constraint" "card" NAME "per" ("domain"|"range")
                      [ "min" NUMBER ] [ "max" NUMBER ]
    colref     := NAME "." ("domain" | "range")
    funcdef    := NAME ":" type "->" type [ "(" NAME "-" NAME ")" ]
    type       := NAME | "[" NAME (";" NAME)* "]"
    qexpr      := qterm ("o" qterm)*
    qterm      := qatom ["^-1"]
    qatom      := NAME | "(" qexpr ")"
    value      := NAME | NUMBER | STRING | "(" value ("," value)* ")"

Keywords are contextual: ``add``, ``show`` etc. are ordinary NAMEs
anywhere a value or function name is expected.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality, product_type
from repro.fdb.query import Query, fn
from repro.fdb.values import Value
from repro.lang import ast
from repro.lang.tokenizer import Token, tokenize

__all__ = ["parse_program", "parse_statement"]


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self.current
        return ParseError(message, token.line, token.column)

    def _at_punct(self, text: str) -> bool:
        return self.current.kind == "PUNCT" and self.current.text == text

    def _at_name(self, *texts: str) -> bool:
        return self.current.kind == "NAME" and (
            not texts or self.current.text in texts
        )

    def _expect_punct(self, text: str) -> Token:
        if not self._at_punct(text):
            raise self._error(
                f"expected {text!r}, found {self.current.text!r}"
            )
        return self._advance()

    def _expect_name(self) -> str:
        if self.current.kind != "NAME":
            raise self._error(
                f"expected a name, found {self.current.text!r}"
            )
        return self._advance().text

    def _skip_terminators(self) -> None:
        while self._at_punct(";"):
            self._advance()

    # -- program / statements --------------------------------------------------

    def parse_program(self) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        self._skip_terminators()
        while self.current.kind != "EOF":
            statements.append(self.parse_statement())
            self._skip_terminators()
        return statements

    def parse_statement(self) -> ast.Statement:
        if self.current.kind != "NAME":
            raise self._error(
                f"expected a statement, found {self.current.text!r}"
            )
        keyword = self.current.text
        handler = {
            "add": self._parse_add,
            "commit": lambda: self._nullary(ast.Commit),
            "design": lambda: self._nullary(ast.ShowDesign),
            "ncs": lambda: self._nullary(ast.ShowNCs),
            "metrics": lambda: self._nullary(ast.Metrics),
            "stats": lambda: self._nullary(ast.Stats),
            "trace": self._parse_trace,
            "deadline": self._parse_deadline,
            "resolve": lambda: self._nullary(ast.Resolve),
            "help": lambda: self._nullary(ast.Help),
            "insert": lambda: self._parse_fact_stmt(ast.Insert),
            "delete": lambda: self._parse_fact_stmt(ast.Delete),
            "replace": self._parse_replace,
            "truth": lambda: self._parse_fact_stmt(ast.TruthQuery),
            "query": self._parse_image_query,
            "pairs": self._parse_pairs_query,
            "show": self._parse_show,
            "save": lambda: self._parse_path_stmt(ast.Save),
            "load": lambda: self._parse_path_stmt(ast.Load),
            "checkpoint": lambda: self._parse_path_stmt(ast.Checkpoint),
            "recover": self._parse_recover,
            "undo": lambda: self._nullary(ast.Undo),
            "redo": lambda: self._nullary(ast.Redo),
            "history": lambda: self._nullary(ast.History),
            "worlds": lambda: self._nullary(ast.Worlds),
            "check": lambda: self._nullary(ast.Check),
            "prob": lambda: self._parse_fact_stmt(ast.Probability),
            "constraint": self._parse_constraint,
            "guard": self._parse_guard,
            "dot": lambda: self._parse_path_stmt(ast.DotExport),
            "begin": lambda: self._nullary(ast.Begin),
            "end": lambda: self._nullary(ast.End),
            "abort": lambda: self._nullary(ast.Abort),
            "for": self._parse_for_each,
            "explain": lambda: self._parse_fact_stmt(ast.Explain),
            "extent": self._parse_extent,
            "changes": lambda: self._nullary(ast.Changes),
            "default": lambda: self._parse_fact_stmt(ast.DefaultQuery),
            "retract": self._parse_retract,
            "minimal": lambda: self._nullary(ast.Minimal),
            "source": lambda: self._parse_path_stmt(ast.Source),
            "schema": lambda: self._parse_path_stmt(ast.LoadSchema),
        }.get(keyword)
        if handler is None:
            raise self._error(
                f"unknown statement {keyword!r} (try 'help')"
            )
        return handler()

    def _nullary(self, cls: type) -> ast.Statement:
        self._advance()
        return cls()

    # -- design statements ----------------------------------------------------------

    def _parse_add(self) -> ast.AddFunction:
        self._advance()  # add
        return ast.AddFunction(self.parse_funcdef())

    def parse_funcdef(self) -> FunctionDef:
        name = self._expect_name()
        self._expect_punct(":")
        domain = self._parse_type()
        self._expect_punct("->")
        range_ = self._parse_type()
        functionality = TypeFunctionality.MANY_MANY
        if self._at_punct("("):
            self._advance()
            left = self._expect_name()
            self._expect_punct("-")
            right = self._expect_name()
            self._expect_punct(")")
            try:
                functionality = TypeFunctionality.parse(f"{left}-{right}")
            except ValueError as exc:
                raise self._error(str(exc)) from exc
        return FunctionDef(name, domain, range_, functionality)

    def _parse_type(self) -> ObjectType:
        if self._at_punct("["):
            self._advance()
            components = [self._expect_name()]
            while self._at_punct(";"):
                self._advance()
                components.append(self._expect_name())
            self._expect_punct("]")
            return product_type(*components)
        return ObjectType(self._expect_name())

    # -- update / fact statements ------------------------------------------------------

    def _parse_fact_stmt(self, cls: type) -> ast.Statement:
        self._advance()  # keyword
        function = self._expect_name()
        x, y = self._parse_pair()
        return cls(function, x, y)

    def _parse_pair(self) -> tuple[Value, Value]:
        self._expect_punct("(")
        x = self.parse_value()
        self._expect_punct(",")
        y = self.parse_value()
        self._expect_punct(")")
        return x, y

    def _parse_replace(self) -> ast.Replace:
        self._advance()  # replace
        function = self._expect_name()
        old = self._parse_pair()
        if not self._at_name("with"):
            raise self._error("expected 'with' in replace statement")
        self._advance()
        new = self._parse_pair()
        return ast.Replace(function, old, new)

    # -- queries ----------------------------------------------------------------------------

    def _parse_image_query(self) -> ast.ImageQuery:
        self._advance()  # query
        query = self.parse_query_expr()
        self._expect_punct("(")
        x = self.parse_value()
        self._expect_punct(")")
        return ast.ImageQuery(query, x)

    def _parse_pairs_query(self) -> ast.PairsQuery:
        self._advance()  # pairs
        return ast.PairsQuery(self.parse_query_expr())

    def parse_query_expr(self) -> Query:
        query = self._parse_query_term()
        while self._at_name("o"):
            self._advance()
            query = query * self._parse_query_term()
        return query

    def _parse_query_term(self) -> Query:
        if self._at_punct("("):
            self._advance()
            inner = self.parse_query_expr()
            self._expect_punct(")")
            query = inner
        else:
            name = self._expect_name()
            query = fn(name)
        while self._at_punct("^-1"):
            self._advance()
            query = ~query
        return query

    def _parse_show(self) -> ast.Show:
        self._advance()  # show
        if self._at_name("all"):
            self._advance()
            return ast.Show(None)
        return ast.Show(self._expect_name())

    def _parse_path_stmt(self, cls: type) -> ast.Statement:
        self._advance()  # save / load / dot / checkpoint ...
        if self.current.kind != "STRING":
            raise self._error("expected a quoted path")
        return cls(self._advance().text)

    def _parse_recover(self) -> ast.Recover:
        self._advance()  # recover
        if self.current.kind != "STRING":
            raise self._error("expected a quoted directory")
        path = self._advance().text
        policy = "strict"
        if self._at_name("strict", "salvage"):
            policy = self._advance().text
        return ast.Recover(path, policy)

    # -- constraints and guards ---------------------------------------------------

    def _parse_column_ref(self) -> tuple[str, str]:
        function = self._expect_name()
        self._expect_punct(".")
        column = self._expect_name()
        if column not in ("domain", "range"):
            raise self._error(
                f"column must be 'domain' or 'range', not {column!r}"
            )
        return function, column

    def _parse_constraint(self) -> ast.Statement:
        self._advance()  # constraint
        kind = self._expect_name()
        if kind == "include":
            source = self._parse_column_ref()
            if not self._at_name("in"):
                raise self._error("expected 'in' in inclusion constraint")
            self._advance()
            target = self._parse_column_ref()
            return ast.DeclareInclusion(*source, *target)
        if kind == "range":
            function, column = self._parse_column_ref()
            low = self._parse_number()
            high = self._parse_number()
            return ast.DeclareRange(function, column, low, high)
        if kind == "card":
            function = self._expect_name()
            if not self._at_name("per"):
                raise self._error("expected 'per' in cardinality "
                                  "constraint")
            self._advance()
            per = self._expect_name()
            if per not in ("domain", "range"):
                raise self._error("per must be 'domain' or 'range'")
            minimum = 0
            maximum: int | None = None
            while self._at_name("min", "max"):
                which = self._advance().text
                bound = self._parse_number()
                if which == "min":
                    minimum = int(bound)
                else:
                    maximum = int(bound)
            return ast.DeclareCardinality(function, per, minimum, maximum)
        raise self._error(
            f"unknown constraint kind {kind!r} "
            "(expected include/range/card)"
        )

    def _parse_number(self) -> float:
        if self.current.kind != "NUMBER":
            raise self._error("expected a number")
        return self._advance().value  # type: ignore[return-value]

    def _parse_for_each(self) -> ast.ForEach:
        """``for each VAR in TYPE [such that cond and cond ...]
        print expr, expr``."""
        self._advance()  # for
        if not self._at_name("each"):
            raise self._error("expected 'each' after 'for'")
        self._advance()
        variable = self._expect_name()
        if not self._at_name("in"):
            raise self._error("expected 'in' in for-each")
        self._advance()
        type_name = self._expect_name()
        conditions: list[ast.Condition] = []
        if self._at_name("such"):
            self._advance()
            if not self._at_name("that"):
                raise self._error("expected 'that' after 'such'")
            self._advance()
            conditions.append(self._parse_condition(variable))
            while self._at_name("and"):
                self._advance()
                conditions.append(self._parse_condition(variable))
        if not self._at_name("print"):
            raise self._error("expected 'print' in for-each")
        self._advance()
        prints = [self.parse_query_expr()]
        while self._at_punct(","):
            self._advance()
            prints.append(self.parse_query_expr())
        return ast.ForEach(
            variable, type_name, tuple(conditions), tuple(prints)
        )

    def _parse_condition(self, variable: str) -> ast.Condition:
        query = self.parse_query_expr()
        self._expect_punct("(")
        argument = self._expect_name()
        if argument != variable:
            raise self._error(
                f"condition must apply to the loop variable "
                f"{variable!r}, not {argument!r}"
            )
        self._expect_punct(")")
        if self._at_punct("="):
            self._advance()
            op = "="
        elif self._at_name("contains"):
            self._advance()
            op = "contains"
        else:
            raise self._error("expected '=' or 'contains' in condition")
        return ast.Condition(query, op, self.parse_value())

    def _parse_retract(self) -> ast.Retract:
        self._advance()  # retract
        return ast.Retract(self._expect_name())

    def _parse_extent(self) -> ast.Extent:
        self._advance()  # extent
        return ast.Extent(self._expect_name())

    def _parse_guard(self) -> ast.Guard:
        self._advance()  # guard
        mode = self._expect_name()
        if mode not in ("on", "off"):
            raise self._error("guard takes 'on' or 'off'")
        return ast.Guard(mode == "on")

    def _parse_trace(self) -> ast.Trace:
        self._advance()  # trace
        mode = self._expect_name()
        if mode not in ("on", "off", "show"):
            raise self._error("trace takes 'on', 'off' or 'show'")
        dot_path: str | None = None
        if self._at_punct("-"):
            # "--dot" lexes as PUNCT(-) PUNCT(-) NAME(dot).
            self._advance()
            self._expect_punct("-")
            flag = self._expect_name()
            if flag != "dot" or mode != "show":
                raise self._error(
                    "the only trace flag is 'show --dot \"path\"'"
                )
            if self.current.kind != "STRING":
                raise self._error("expected a quoted path after --dot")
            dot_path = self._advance().text
        return ast.Trace(mode, dot_path)

    def _parse_deadline(self) -> ast.DeadlineCmd:
        self._advance()  # deadline
        if self._at_name("off"):
            self._advance()
            return ast.DeadlineCmd("off")
        if self.current.kind == "NUMBER":
            seconds = self._parse_number()
            if seconds <= 0:
                raise self._error("deadline must be positive")
            return ast.DeadlineCmd("set", seconds)
        return ast.DeadlineCmd("show")

    # -- values ------------------------------------------------------------------------------

    def parse_value(self) -> Value:
        token = self.current
        if token.kind in ("NAME", "NUMBER", "STRING"):
            self._advance()
            return token.value
        if self._at_punct("("):
            self._advance()
            items = [self.parse_value()]
            while self._at_punct(","):
                self._advance()
                items.append(self.parse_value())
            self._expect_punct(")")
            if len(items) == 1:
                return items[0]
            return tuple(items)
        raise self._error(f"expected a value, found {token.text!r}")


def parse_program(text: str) -> list[ast.Statement]:
    """Parse a whole script into statements."""
    return _Parser(tokenize(text)).parse_program()


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one statement (trailing terminators allowed)."""
    parser = _Parser(tokenize(text))
    parser._skip_terminators()
    statement = parser.parse_statement()
    parser._skip_terminators()
    if parser.current.kind != "EOF":
        raise ParseError(
            f"unexpected trailing input: {parser.current.text!r}",
            parser.current.line,
            parser.current.column,
        )
    return statement
