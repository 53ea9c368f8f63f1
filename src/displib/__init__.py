"""Toolkit for the train dispatching problem.

Instances describe trains as acyclic operation graphs over time-shared
resources; solutions pick a route per train and order the starts. The
package parses and writes the JSON interchange format, verifies solutions,
searches for good schedules, builds a solver-ready LP model, and generates
synthetic instances. The modules are the API: import them by name.
"""

__version__ = "0.1.0"
