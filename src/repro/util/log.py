"""Logging: thin wrapper over stdlib ``logging`` with a repro namespace.

Components log under ``repro.<component>``.  Library code never
configures logging (standard library etiquette): a caller that wants the
records attaches its own handler to the ``repro`` logger.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger"]

_ROOT = "repro"


def get_logger(component: str) -> logging.Logger:
    """Logger for a framework component (e.g. ``netmgmt``, ``worker``)."""
    return logging.getLogger(f"{_ROOT}.{component}")
