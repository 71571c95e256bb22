"""The crystal kernel as it stood before its fold read per-node fold
columns, kept as the oracle for ``crystal``: e, eps and phi tables read off
the i-strings walked down from their tops, the signature fold over the
factors by index, and the component search element by element, keeping for
each new element the least node and then the first parent."""


def string_tables(f, n):
  """(e, eps, phi) of the lowering columns f on n elements, lists indexed
  [i - 1][b]: e is the inverse of f, and eps and phi are the positions on
  the i-strings walked down from their tops."""
  e_cols, eps_cols, phi_cols = [], [], []
  for down in f:
    up = [None] * n
    for b, c in enumerate(down):
      if c is not None:
        up[c] = b
    eps, phi = [0] * n, [0] * n
    for top in range(n):
      if up[top] is None:
        string = [top]
        while down[string[-1]] is not None:
          string.append(down[string[-1]])
        for k, c in enumerate(string):
          eps[c], phi[c] = k, len(string) - 1 - k
    e_cols.append(up)
    eps_cols.append(eps)
    phi_cols.append(phi)
  return e_cols, eps_cols, phi_cols


class OracleTensor:
  """The signature rule over the factors' lowering columns and weights; the
  e, eps and phi of each factor come from ``string_tables``."""

  def __init__(self, factors):
    self.factors = list(factors)
    self.rank = self.factors[0].rank
    tables = [string_tables(f._f, len(f)) for f in self.factors]
    self._e, self._eps, self._phi = (
        list(zip(*(table[n] for table in tables))) for n in range(3))
    self._f = list(zip(*(f._f for f in self.factors)))

  def wt(self, b):
    return tuple(map(sum, zip(*[f.weights[bk]
                                for f, bk in zip(self.factors, b)])))

  def fold(self, b, i, raising):
    """(eps, phi, pos) of b at node i, the factors read right to left by
    index."""
    eps, phi = self._eps[i - 1], self._phi[i - 1]
    pos = None
    e2 = p2 = 0
    for k in range(len(b) - 1, -1, -1):
      p1 = phi[k][b[k]]
      if p1 >= e2:
        if raising or p1 > e2:
          pos = k
        p2 += p1 - e2
        e2 = eps[k][b[k]]
      else:
        e2 += eps[k][b[k]] - p1
    return e2, p2, pos

  def step(self, b, i, raising):
    pos = self.fold(b, i, raising)[2]
    if pos is None:
      return None
    img = (self._e if raising else self._f)[i - 1][pos][b[pos]]
    return None if img is None else b[:pos] + (img,) + b[pos + 1:]


def component(tensor, hw):
  """The component of an OracleTensor from a highest weight element:
  (elements, paths, weights, f columns), found level by level, element by
  element, each new element keeping the least (node, parent) pair that
  reaches it."""
  rank = tensor.rank
  elements, paths = [hw], [()]
  f = [[] for _ in range(rank)]
  start = 0
  while start < len(elements):
    stop = len(elements)
    found = {}
    for k in range(start, stop):
      for i, column in enumerate(f, 1):
        c = tensor.step(elements[k], i, False)
        column.append(c)
        if c is not None and (c not in found or i < found[c][0]):
          found[c] = (i, k)
    for c in sorted(found, key=found.get):
      i, k = found[c]
      elements.append(c)
      paths.append((i,) + paths[k])
    start = stop
  index = {b: k for k, b in enumerate(elements)}
  f = [[None if c is None else index[c] for c in column] for column in f]
  return elements, paths, [tensor.wt(b) for b in elements], f
