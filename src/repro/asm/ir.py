"""Assembler intermediate representation.

A parsed program is a flat list of statements: :class:`Label`,
:class:`Insn` and :class:`Directive`.  Operands are :class:`Reg`,
:class:`Imm`, :class:`Sym` (a label reference, optionally with a
``%hi``/``%lo`` modifier) and :class:`Mem` (``offset(base)``).

The Argus embedder mutates statement lists (inserting ``sig``
instructions) and re-assembles, so statements are lightweight and
position-independent.
"""

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Reg:
    """A register operand."""

    index: int

    def __str__(self):
        return "r%d" % self.index


@dataclass(frozen=True)
class Imm:
    """A literal integer operand."""

    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Sym:
    """A symbolic (label) operand; ``modifier`` is None, ``hi`` or ``lo``."""

    name: str
    modifier: Optional[str] = None

    def __str__(self):
        if self.modifier:
            return "%%%s(%s)" % (self.modifier, self.name)
        return self.name


@dataclass(frozen=True)
class Mem:
    """A memory operand ``offset(base)``; offset may be Imm or Sym."""

    offset: object
    base: Reg

    def __str__(self):
        return "%s(%s)" % (self.offset, self.base)


@dataclass
class Label:
    """A label definition statement."""

    name: str
    line: int = 0

    def __str__(self):
        return "%s:" % self.name


@dataclass
class Insn:
    """One machine instruction statement (post pseudo-expansion)."""

    mnemonic: str
    operands: Tuple = ()
    line: int = 0

    def __str__(self):
        if not self.operands:
            return self.mnemonic
        return "%s %s" % (self.mnemonic, ", ".join(str(o) for o in self.operands))


@dataclass
class Directive:
    """An assembler directive (``.word``, ``.text``, ``.codeptr``, ...)."""

    name: str
    args: Tuple = ()
    line: int = 0

    def __str__(self):
        if not self.args:
            return ".%s" % self.name
        return ".%s %s" % (self.name, ", ".join(str(a) for a in self.args))


def clone_statements(stmts):
    """Shallow-copy a statement list so an embedder pass can mutate it."""
    out = []
    for s in stmts:
        if isinstance(s, Label):
            out.append(Label(s.name, s.line))
        elif isinstance(s, Insn):
            out.append(Insn(s.mnemonic, tuple(s.operands), s.line))
        elif isinstance(s, Directive):
            out.append(Directive(s.name, tuple(s.args), s.line))
        else:  # pragma: no cover - IR node kinds are closed
            raise TypeError("unknown statement %r" % (s,))
    return out
