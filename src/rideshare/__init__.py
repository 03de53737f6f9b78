"""Ridesharing with unreliable commuters: allocation, pricing, audits."""
