"""NAND flash substrate: program / erase / read timings and endurance."""
