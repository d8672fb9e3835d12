"""LISA substrate: IP-BWT, recursive-model learned index, LISA search."""
