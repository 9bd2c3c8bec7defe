"""Loaded by pytest before either suite, tests/ or perfbench/, imports a module."""

import os
import sys

# a test run leaves no bytecode beside the sources: a child process that
# imports kloos from this checkout compiles it afresh, as a clean checkout does
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
