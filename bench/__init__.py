"""The repository's one benchmark; ``run.py`` is the command (see ``README.md``)."""
