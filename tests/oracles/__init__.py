"""Reference implementations that tests hold production code against."""
