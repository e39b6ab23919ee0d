"""Closed-loop benchmark of the flow-motif query pipeline (see run.py)."""
