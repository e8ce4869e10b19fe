"""Deterministic simulator and analytical power model for mobile video-display pipelines.

The package models how a mobile SoC drives a panel while playing video: which
package power states the system moves through inside each display refresh
window, how much data moves over DRAM and the display link, and what the
resulting energy bill looks like.  Four display schemes are modeled:

* ``baseline``       -- decode into DRAM, then stream the frame to the panel
                        at the panel rate for the whole window.
* ``bypass_only``    -- the video decoder feeds the display controller buffer
                        directly, skipping the decoded-frame DRAM round trip.
* ``bursting_only``  -- decode into DRAM, then push the frame over the display
                        link at its maximum rate and idle for the rest of the
                        window.
* ``burstlink``      -- both techniques combined: decode straight into the
                        display controller buffer and burst it to a panel-side
                        frame buffer, then drop into deep idle.

Timelines are exact (integer nanoseconds), energy accounting is closed over
per-state powers plus DRAM traffic coefficients, and an independent
discrete-event oracle cross-checks every analytic timeline builder.
"""

__version__ = "0.1.0"
