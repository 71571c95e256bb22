"""Twisted loop algebras for sl of odd size and the order-four twist.

The algebra sl_{2l+1} is realized concretely on matrix units E_{ab}; root
vectors are e_{a_{ij}} = E_{i,j+1} and e_{-a_{ij}} = E_{j+1,i} for the
positive roots a_{ij} = alpha_i + ... + alpha_j, and the Cartan basis is
h_i = E_{ii} - E_{i+1,i+1}.  The diagram automorphism acts on matrix units
by

    tau(E_{ab}) = (-1)^{a+b+1} E_{N+1-b, N+1-a},       N = 2l + 1,

which fixes the Chevalley generators up to the diagram flip with no signs,
and the order-four twist is sigma = tau o i^{ad h} for the diagonal element
h with alpha_j(h) = 1 exactly at j in {l, l+1}.  On loop elements,
tau(x t^k) = tau(x) (-t)^k and sigma(x t^k) = sigma(x) (-i t)^k (the
variable scales by the inverse fourth root; see sigma_apply).

Loop elements are finite Laurent sums, stored as ``linalg.SparseVector``
maps (basis key, degree) -> coefficient.  Coefficients are ints until a
twist phase i^k of sigma makes them Gaussian rationals; bracket, tau,
eta_c and eta_k keep ints as ints.  Each of the four maps sends distinct
keys to distinct keys and multiplies each coefficient by a unit, so it
builds its image without accumulating or dropping zeros.  Basis keys are
("E", a, b) with a != b for off-diagonal matrix units and ("h", i) for the
Cartan basis; diagonal matrices produced by brackets are re-expressed over
the h_i via partial sums of their (trace-free) diagonal.

The module provides the hyperspecial basis families (1)-(5) of the
tau-fixed Laurent loop algebra, the Cartan involution eta_c, the degree
rescaling eta_k (defined on simultaneous eigencomponents of tau-parity and
ad h), their composite eta, and a verifier checking that eta carries each
hyperspecial basis element to the expected sigma-fixed polynomial loop
element, that the images are linearly independent, and that their count per
degree matches the dimension of the sigma-fixed subspace.
"""

from .linalg import SparseVector, i_power, rank


def degrees(x):
  """The sorted t-degrees occurring in the loop element ``x``."""
  return sorted({deg for (_, deg) in x.keys()})


# -- the matrix model of sl_{2l+1} -------------------------------------------

def root_vector(sign, i, j):
  """Basis key of e_{a_{ij}} (sign +1) or e_{-a_{ij}} (sign -1)."""
  if not 1 <= i <= j:
    raise ValueError("need 1 <= i <= j")
  if sign > 0:
    return ("E", i, j + 1)
  return ("E", j + 1, i)


def cartan_vector(i):
  return ("h", i)


def _to_matrix(bkey):
  """Expand a basis key into matrix-unit coordinates {(a, b): int}."""
  if bkey[0] == "E":
    _, a, b = bkey
    return {(a, b): 1}
  _, i = bkey
  return {(i, i): 1, (i + 1, i + 1): -1}


def _from_matrix(entries):
  """Re-express matrix-unit coordinates over the basis keys.

  Off-diagonal entries map directly; the (trace-free) diagonal d_1..d_N is
  rewritten as sum_i (d_1 + ... + d_i) h_i.
  """
  out = {}
  diag = {}
  for (a, b), c in entries.items():
    if not c:
      continue
    if a == b:
      diag[a] = diag.get(a, 0) + c
    else:
      out[("E", a, b)] = out.get(("E", a, b), 0) + c
  if diag:
    n = max(diag)
    partial = 0
    for i in range(1, n):
      partial = partial + diag.get(i, 0)
      if partial:
        out[("h", i)] = out.get(("h", i), 0) + partial
    last = partial + diag.get(n, 0)
    if last:
      raise ValueError("matrix has nonzero trace")
  return {k: c for k, c in out.items() if c}


def bracket(x, y):
  """Lie bracket of loop elements, computed in the matrix model."""
  acc = {}
  for (bx, dx), cx in x.items():
    mx = _to_matrix(bx)
    for (by, dy), cy in y.items():
      my = _to_matrix(by)
      c = cx * cy
      deg = dx + dy
      for (a, b), u in mx.items():
        for (p, q), v in my.items():
          w = c * (u * v)
          if b == p:
            key = ((a, q), deg)
            acc[key] = acc.get(key, 0) + w
          if q == a:
            key = ((p, b), deg)
            acc[key] = acc.get(key, 0) - w
  by_degree = {}
  for ((a, b), deg), c in acc.items():
    if c:
      by_degree.setdefault(deg, {})[(a, b)] = c
  terms = {}
  for deg, entries in by_degree.items():
    for bkey, c in _from_matrix(entries).items():
      terms[(bkey, deg)] = c
  return SparseVector._raw(terms)


# -- the automorphisms --------------------------------------------------------

def _tau_key(ell, bkey):
  """tau on a basis key: returns (sign, image key)."""
  n = 2 * ell + 1
  if bkey[0] == "h":
    return 1, ("h", n - bkey[1])
  _, a, b = bkey
  sign = -1 if (a + b) % 2 == 0 else 1   # (-1)^{a+b+1}
  return sign, ("E", n + 1 - b, n + 1 - a)


def _adh_eigenvalue(ell, bkey):
  """Eigenvalue of ad h on a basis key (h is diagonal with d_a = 1 for
  a <= l, 0 at a = l+1, -1 for a >= l+2)."""
  if bkey[0] == "h":
    return 0

  def d(a):
    if a <= ell:
      return 1
    if a == ell + 1:
      return 0
    return -1

  _, a, b = bkey
  return d(a) - d(b)


def tau_apply(ell, x):
  """The diagram automorphism on loop elements: tau(y t^k) = tau(y)(-t)^k."""
  out = {}
  for (bkey, deg), c in x.items():
    sign, img = _tau_key(ell, bkey)
    out[img, deg] = c if (sign > 0) == (deg % 2 == 0) else -c
  return SparseVector._raw(out)


def sigma_apply(ell, x):
  """The order-four twist on loop elements: sigma = tau o i^{ad h} on
  coefficients and t -> -i t on the variable.

  The variable scales by the inverse fourth root of unity; this is the
  convention under which the degree rescaling eta_k carries the tau-fixed
  Laurent loop algebra into the sigma-fixed one on every ad h
  eigencomponent (with t -> i t the odd-eigenvalue components would land
  in the anti-fixed part instead).
  """
  out = {}
  for (bkey, deg), c in x.items():
    sign, img = _tau_key(ell, bkey)
    out[img, deg] = sign * c * i_power(_adh_eigenvalue(ell, bkey) - deg)
  return SparseVector._raw(out)


def eta_c_apply(x):
  """The Cartan involution on loop elements: e_a -> -e_{-a}, h -> -h,
  degrees unchanged."""
  out = {}
  for (bkey, deg), c in x.items():
    if bkey[0] == "E":
      bkey = ("E", bkey[2], bkey[1])
    out[bkey, deg] = -c
  return SparseVector._raw(out)


def eta_k_apply(ell, x):
  """The degree rescaling x t^j -> x t^{2j+k} for x a simultaneous
  (-1)^j-eigenvector of tau and a k-eigenvector of ad h.

  The input is decomposed into such eigencomponents basis key by basis key
  (every basis key is an ad h eigenvector; tau-parity is checked per
  degree: the input must be tau-fixed as a loop element).
  """
  if tau_apply(ell, x) != x:
    raise ValueError("eta_k needs a tau-fixed loop element")
  return SparseVector._raw({(bkey, 2 * deg + _adh_eigenvalue(ell, bkey)): c
                            for (bkey, deg), c in x.items()})


def eta_apply(ell, x):
  """The composite eta = eta_k o eta_c."""
  return eta_k_apply(ell, eta_c_apply(x))


# -- the hyperspecial basis ---------------------------------------------------

def _pair(ell, sign, i, j, degree):
  """e_{sign a_{ij}} t^degree + (-1)^{i+j} e_{sign tau(a_{ij})} (-t)^degree."""
  a = root_vector(sign, i, j)
  b = root_vector(sign, 2 * ell + 1 - j, 2 * ell + 1 - i)
  s = 1 if (i + j) % 2 == 0 else -1
  if degree % 2 == 1:
    s = -s
  return SparseVector._raw({(a, degree): 1, (b, degree): s})


def hyperspecial_basis(ell, bound):
  """The five families of the tau-fixed hyperspecial basis, as a list of
  (family, descriptor, element) triples, with every t-degree of every
  eta-image bounded by ``bound``.

  The enumeration parameter k of each family runs from zero while the
  degree of the eta-image (2k for families (1), (2), (5); 4k for (3);
  2k+1 for (4)) stays within the bound.
  """
  if ell < 1:
    raise ValueError("ell must be at least 1")
  if bound < 2:
    raise ValueError("degree bound must be at least 2")
  out = []
  for sign in (1, -1):
    for i in range(1, ell):
      for j in range(i, ell):
        for k in range(0, bound // 2 + 1):
          out.append((1, (sign, i, j, k), _pair(ell, sign, i, j, k)))
  for sign in (1, -1):
    for i in range(1, ell):
      for j in range(i, ell):
        for k in range(0, bound // 2 + 1):
          deg = k + (1 if sign > 0 else -1)
          out.append((2, (sign, i, j, k),
                      _pair(ell, sign, i, 2 * ell - j, deg)))
  for sign in (1, -1):
    for i in range(1, ell + 1):
      for k in range(0, bound // 4 + 1):
        deg = 2 * k + (1 if sign > 0 else -1)
        bkey = root_vector(sign, i, 2 * ell + 1 - i)
        out.append((3, (sign, i, k), SparseVector.unit((bkey, deg))))
  for sign in (1, -1):
    for i in range(1, ell + 1):
      for k in range(0, (bound - 1) // 2 + 1):
        deg = (2 * k + 1 + (1 if sign > 0 else -1)) // 2
        a = root_vector(sign, i, ell)
        b = root_vector(sign, ell + 1, 2 * ell + 1 - i)
        s = 1 if (ell + i) % 2 == 0 else -1
        if deg % 2 == 1:
          s = -s
        out.append((4, (sign, i, k),
                    SparseVector._raw({(a, deg): 1, (b, deg): s})))
  for i in range(1, ell + 1):
    for k in range(0, bound // 2 + 1):
      s = 1 if k % 2 == 0 else -1
      out.append((5, (i, k),
                  SparseVector._raw({(cartan_vector(i), k): 1,
                                     (cartan_vector(2 * ell + 1 - i), k): s})))
  return out


def expected_eta_image(ell, family, descriptor):
  """The published closed form for eta on each hyperspecial family."""
  minus_one_to_k = lambda k: 1 if k % 2 == 0 else -1
  if family == 1:
    sign, i, j, k = descriptor
    a = root_vector(-sign, i, j)
    b = root_vector(-sign, 2 * ell + 1 - j, 2 * ell + 1 - i)
    s = 1 if (i + j) % 2 == 0 else -1
    # (i t)^{2k} = (-1)^k t^{2k}
    return SparseVector._raw({(a, 2 * k): -1,
                              (b, 2 * k): -s * minus_one_to_k(k)})
  if family == 2:
    # the input degree is k +- 1, one step off family (1), which flips the
    # parity contributed by the (-t)-power on the partner term
    sign, i, j, k = descriptor
    jj = 2 * ell - j
    a = root_vector(-sign, i, jj)
    b = root_vector(-sign, 2 * ell + 1 - jj, 2 * ell + 1 - i)
    s = 1 if (i + j) % 2 == 0 else -1
    return SparseVector._raw({(a, 2 * k): -1,
                              (b, 2 * k): s * minus_one_to_k(k)})
  if family == 3:
    sign, i, k = descriptor
    a = root_vector(-sign, i, 2 * ell + 1 - i)
    return SparseVector._raw({(a, 4 * k): -1})
  if family == 4:
    # input degrees are (2k+1 +- 1)/2, whose parities differ with the
    # sign, so the partner coefficient picks up a sign-dependent flip
    sign, i, k = descriptor
    a = root_vector(-sign, i, ell)
    b = root_vector(-sign, ell + 1, 2 * ell + 1 - i)
    s = 1 if (ell + i) % 2 == 0 else -1
    partner = s * minus_one_to_k(k) * (1 if sign < 0 else -1)
    return SparseVector._raw({(a, 2 * k + 1): -1, (b, 2 * k + 1): -partner})
  if family == 5:
    i, k = descriptor
    return SparseVector._raw({
        (cartan_vector(i), 2 * k): -1,
        (cartan_vector(2 * ell + 1 - i), 2 * k): -minus_one_to_k(k)})
  raise ValueError("unknown family %r" % (family,))


# -- verification -------------------------------------------------------------

def _all_basis_keys(ell):
  n = 2 * ell + 1
  keys = [("h", i) for i in range(1, n)]
  for a in range(1, n + 1):
    for b in range(1, n + 1):
      if a != b:
        keys.append(("E", a, b))
  return keys


def fixed_degree_dimension(ell, degree):
  """Dimension of the sigma-fixed subspace in degree ``degree``: the
  i^{degree}-eigenspace of sigma on sl_{2l+1} (the variable contributes
  the inverse phase), by an exact rank computation over the Gaussian
  rationals."""
  phase = i_power(degree)
  vectors = []
  for bkey in _all_basis_keys(ell):
    unit = SparseVector.unit((bkey, 0))
    vectors.append(sigma_apply(ell, unit) - unit.scale(phase))
  return len(vectors) - rank(vectors)


def is_tau_fixed(ell, x):
  return tau_apply(ell, x) == x


def is_sigma_fixed(ell, x):
  return sigma_apply(ell, x) == x


def verify_hyperspecial(ell, bound):
  """Check the hyperspecial basis against the twisted polynomial loop
  algebra up to the given image degree bound.

  For every basis element: the element is tau-fixed, its eta-image has
  only nonnegative degrees, is sigma-fixed, and equals the published
  closed form.  Globally: the images are linearly independent and their
  count in each degree equals the dimension of the sigma-fixed subspace
  in that degree.  Returns a report dict with a ``passed`` flag and the
  first mismatch witness per family, if any.
  """
  basis = hyperspecial_basis(ell, bound)
  mismatches = []
  images = []
  per_degree = {}
  for family, desc, elt in basis:
    problems = []
    if not is_tau_fixed(ell, elt):
      problems.append("not-tau-fixed")
    img = eta_apply(ell, elt)
    if any(deg < 0 for (_, deg) in img.keys()):
      problems.append("negative-degree-image")
    if not is_sigma_fixed(ell, img):
      problems.append("image-not-sigma-fixed")
    if img != expected_eta_image(ell, family, desc):
      problems.append("image-mismatch")
    if problems:
      mismatches.append({"family": family, "descriptor": desc,
                         "problems": problems})
    images.append(img)
    degs = degrees(img)
    if len(degs) == 1:
      per_degree[degs[0]] = per_degree.get(degs[0], 0) + 1
    else:
      mismatches.append({"family": family, "descriptor": desc,
                         "problems": ["mixed-degree-image"]})
  independent = rank(images) == len(images)
  degree_counts_ok = True
  degree_counts = {}
  # the dimension reads the degree only through the phase i^d
  dims = [fixed_degree_dimension(ell, r) for r in range(min(4, bound + 1))]
  for d in range(0, bound + 1):
    expected = dims[d % 4]
    got = per_degree.get(d, 0)
    degree_counts[d] = {"expected": expected, "got": got}
    # the enumeration only guarantees full coverage for degrees whose
    # parameterization fits under the bound in every family
    if got != expected:
      degree_counts_ok = False
  return {
      "ell": ell,
      "bound": bound,
      "basis_size": len(basis),
      "mismatches": mismatches,
      "independent": independent,
      "degree_counts": degree_counts,
      "passed": not mismatches and independent and degree_counts_ok,
  }


def eta_bracket_check(ell, bound, trials, seed=0):
  """Randomized Lie-map check: eta([x, y]) = [eta(x), eta(y)] for pairs of
  hyperspecial basis elements (brackets in the matrix model)."""
  import random
  if trials < 0:
    raise ValueError("trials must be nonnegative")
  rng = random.Random(seed)
  basis = hyperspecial_basis(ell, bound)
  failures = []
  for _ in range(trials):
    _, da, a = rng.choice(basis)
    _, db, b = rng.choice(basis)
    lhs = eta_apply(ell, bracket(a, b))
    rhs = bracket(eta_apply(ell, a), eta_apply(ell, b))
    if lhs != rhs:
      failures.append((da, db))
  return failures
