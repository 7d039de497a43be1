"""Dispatch a distribution feeder with stochastic prosumers using a battery:
day-ahead planning from historical-profile forecasts and a 10-second
model-predictive tracking controller, plus a closed-loop simulator."""

__version__ = "0.1.0"
