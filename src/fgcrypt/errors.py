"""Exception types shared across the package."""


class FgError(Exception):
    """Base class for all domain errors raised by fgcrypt."""


class WordSyntaxError(FgError, ValueError):
    """Malformed textual input (word, tuple, move, automorphism or matrix).

    ``position`` is the 0-based character offset of the offending token when
    known, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class InvalidLetterError(FgError, ValueError):
    """A letter index is outside the alphabet's rank."""


class IllegalMoveError(FgError, ValueError):
    """An elementary move that cannot be applied (bad index, T3 on a
    non-identity entry, ...)."""


class NotRegularError(IllegalMoveError):
    """A T3 move appeared where only regular (T1/T2) moves are allowed."""


class PreconditionError(FgError, ValueError):
    """An operation's documented precondition does not hold."""


class AlphabetMismatchError(PreconditionError):
    """Operands over different alphabets (``words._same_alphabet``)."""


class EncodingError(FgError, ValueError):
    """A plaintext symbol is not part of the plaintext alphabet."""

    def __init__(self, symbol: str, position: int):
        super().__init__(f"symbol {symbol!r} at position {position} "
                         "is not in the plaintext alphabet")
        self.symbol = symbol
        self.position = position


class DecryptionError(FgError, ValueError):
    """A ciphertext unit could not be decrypted (wrong key or corruption)."""

    def __init__(self, message: str, unit_index: int | None = None):
        super().__init__(message)
        self.unit_index = unit_index


class SingularMatrixError(FgError, ValueError):
    """Attempted to invert a matrix with determinant 0."""


class CapExceededError(FgError, RuntimeError):
    """A configured search/enumeration cap would be exceeded."""
