"""Support code of the ``perf/run.py`` benchmark (see ``perf/README.md``)."""
