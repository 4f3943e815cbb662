"""Lexer for the mini-C guest language (the repository's ``clang`` analog).

The toolchain role in the paper's ecosystem: applications are written in a
C-like language and compiled against WALI imports.  Tokens carry line/column
for error messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class CompileError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}:{col}: {message}" if line else message)


KEYWORDS = {
    "func", "extern", "export", "global", "const", "var", "buffer",
    "if", "else", "while", "break", "continue", "return", "from",
    "i32", "i64", "f64",
}

PUNCT = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "(", ")", "{", "}", ",", ";", ":", "->", "+", "-", "*", "/", "%",
    "&", "|", "^", "<", ">", "=", "!", "[", "]",
]
PUNCT.sort(key=len, reverse=True)


@dataclass
class Token:
    kind: str   # "ident" | "num" | "float" | "str" | "char" | punct | keyword
    value: object
    line: int
    col: int

    def __repr__(self):
        return f"Token({self.kind!r}, {self.value!r})"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            '"': '"', "'": "'"}


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line = line
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise CompileError("unterminated block comment", start_line)
            advance(2)
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            tl, tc = line, col
            if source.startswith("0x", i) or source.startswith("0X", i):
                advance(2)
                while i < n and source[i] in "0123456789abcdefABCDEF":
                    advance(1)
                tokens.append(Token("num", int(source[start:i], 16), tl, tc))
                continue
            is_float = False
            while i < n and (source[i].isdigit() or source[i] == "."):
                if source[i] == ".":
                    if is_float:
                        break
                    is_float = True
                advance(1)
            text = source[start:i]
            if is_float:
                tokens.append(Token("float", float(text), tl, tc))
            else:
                tokens.append(Token("num", int(text), tl, tc))
            continue
        if c.isalpha() or c == "_":
            start = i
            tl, tc = line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            word = source[start:i]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, tl, tc))
            continue
        if c == '"':
            tl, tc = line, col
            advance(1)
            out = []
            while i < n and source[i] != '"':
                ch = source[i]
                if ch == "\\":
                    advance(1)
                    if i >= n:
                        break
                    esc = source[i]
                    if esc == "x":
                        advance(1)
                        hex_digits = source[i:i + 2]
                        out.append(chr(int(hex_digits, 16)))
                        advance(2)
                        continue
                    out.append(_ESCAPES.get(esc, esc))
                    advance(1)
                    continue
                out.append(ch)
                advance(1)
            if i >= n:
                raise CompileError("unterminated string literal", tl, tc)
            advance(1)
            tokens.append(Token("str", "".join(out), tl, tc))
            continue
        if c == "'":
            tl, tc = line, col
            advance(1)
            if i < n and source[i] == "\\":
                advance(1)
                ch = _ESCAPES.get(source[i], source[i])
            else:
                ch = source[i]
            advance(1)
            if i >= n or source[i] != "'":
                raise CompileError("unterminated char literal", tl, tc)
            advance(1)
            tokens.append(Token("num", ord(ch), tl, tc))
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                advance(len(p))
                break
        else:
            raise CompileError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", None, line, col))
    return tokens
