"""Layered benchmark for cylwave; see README.md in this directory."""
