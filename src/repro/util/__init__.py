"""Small shared utilities: serialization checks, codecs, logging."""

from repro.util.serialization import serialized_size

__all__ = ["serialized_size"]
