"""One-core closed-loop benchmark suite (see README.md in this directory).

``adapter`` is the only module that imports the program under test;
``workloads`` drives it, ``tracing`` wraps its public callables in the
separate traced run, ``metrics`` declares every metric name, ``child``
is the pinned measuring process and ``driver`` the command line.
"""
