"""Reading a result table row by row."""


def rows(result, table=None):
    """The rows of one of `result`'s tables (its own by default), each a dict
    from column name to value."""
    columns = result.tables[table or result.name]
    return [dict(zip(columns, values)) for values in zip(*columns.values())]
