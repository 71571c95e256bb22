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
Cartan basis.  The bracket works on the keys' structure constants, with no
matrices: [E_ab, E_pq] = d_bp E_aq - d_qa E_pb, the diagonal E_aa - E_bb
is +-(h_min(a,b) + ... + h_max(a,b)-1), and h_i scales E_ab by
alpha_i(a, b) = d_ia - d_{i+1,a} - d_ib + d_{i+1,b}.  Whether an element is
tau- or sigma-fixed is read term by term off the sign and phase of its key,
without building the image (see is_tau_fixed and is_sigma_fixed).

The module provides the hyperspecial basis families (1)-(5) of the
tau-fixed Laurent loop algebra, the Cartan involution eta_c, the degree
rescaling eta_k (defined on simultaneous eigencomponents of tau-parity and
ad h), their composite eta, and a verifier checking that eta carries each
hyperspecial basis element to the expected sigma-fixed polynomial loop
element, that the images are linearly independent, and that their count per
degree matches the dimension of the sigma-fixed subspace.

The verifier ranks no Gaussian vectors.  sigma sends each basis key to one
key times a unit, so its eigenspace dimensions come from its cycles on the
keys (the eigenvalue count of a weighted cyclic permutation; see
_fixed_dimensions).  Independence appends the images, in basis order, to
one echelon of the fraction-free kernel (``linalg._append_row``), up to
the first that does not append (see _independence_break).  The images of
a correct eta share no (key, degree) pair, and the kernel visits only the
pivots a vector holds, so none of them takes an elimination step.
"""

from sys import maxsize

from .linalg import SparseVector, _append_row, i_power, rank


def degrees(x):
  """The sorted t-degrees occurring in the loop element ``x``."""
  return sorted({deg for (_, deg) in x.keys()})


# -- the basis of sl_{2l+1} ---------------------------------------------------

def root_vector(sign, i, j):
  """Basis key of e_{a_{ij}} (sign +1) or e_{-a_{ij}} (sign -1)."""
  if not 1 <= i <= j:
    raise ValueError("need 1 <= i <= j")
  if sign > 0:
    return ("E", i, j + 1)
  return ("E", j + 1, i)


def cartan_vector(i):
  return ("h", i)


def _root_value(i, a, b):
  """alpha_i on the root of E_ab: [h_i, E_ab] = _root_value(i, a, b) E_ab."""
  return (i == a) - (i + 1 == a) - (i == b) + (i + 1 == b)


def bracket(x, y):
  """Lie bracket of loop elements, from the structure constants of the
  basis keys (degrees add):

      [E_ab, E_pq] = d_bp E_aq - d_qa E_pb,
      [h_i, E_ab] = (d_ia - d_{i+1,a} - d_ib + d_{i+1,b}) E_ab,
      [h_i, h_j] = 0,

  where the diagonal E_aa - E_bb of [E_ab, E_ba] is h_a + ... + h_{b-1}
  for a < b and -(h_b + ... + h_{a-1}) for a > b.  Terms accumulate in one
  dict; zeros are dropped at the end."""
  acc = {}
  for (bx, dx), cx in x.items():
    for (by, dy), cy in y.items():
      if bx[0] == "E":
        _, a, b = bx
        if by[0] == "h":
          w = -_root_value(by[1], a, b)
          if w:
            key = (bx, dx + dy)
            acc[key] = acc.get(key, 0) + w * (cx * cy)
          continue
        _, p, q = by
        if b == p:
          c = cx * cy
          deg = dx + dy
          if q != a:
            key = (("E", a, q), deg)
            acc[key] = acc.get(key, 0) + c
          else:
            if a > b:
              c = -c
            for i in range(min(a, b), max(a, b)):
              key = (("h", i), deg)
              acc[key] = acc.get(key, 0) + c
        elif q == a:
          key = (("E", p, b), dx + dy)
          acc[key] = acc.get(key, 0) - cx * cy
      elif by[0] == "E":
        w = _root_value(bx[1], by[1], by[2])
        if w:
          key = (by, dx + dy)
          acc[key] = acc.get(key, 0) + w * (cx * cy)
  return SparseVector._raw({key: c for key, c in acc.items() if c})


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
  _, a, b = bkey
  return (a <= ell) - (a > ell + 1) - (b <= ell) + (b > ell + 1)


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
  if not is_tau_fixed(ell, x):
    raise ValueError("eta_k needs a tau-fixed loop element")
  return _eta_k(ell, x)


def _eta_k(ell, x):
  """eta_k without the tau test, for a caller that has made it on x or on
  the element that eta_c sent to x: eta_c commutes with tau."""
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
  # checked before any range over them is walked
  if ell > maxsize:
    raise ValueError("ell %d does not fit in an index" % ell)
  if bound > maxsize:
    raise ValueError("degree bound %d does not fit in an index" % bound)
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
        out.append((4, (sign, i, k), _pair(ell, sign, i, ell, deg)))
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
  rationals.

  This is the definition the benchmark harness and the tests use; the
  verifier reads the same dimensions from the cycles of sigma instead
  (_fixed_dimensions)."""
  phase = i_power(degree)
  vectors = []
  for bkey in _all_basis_keys(ell):
    unit = SparseVector.unit((bkey, 0))
    vectors.append(sigma_apply(ell, unit) - unit.scale(phase))
  return len(vectors) - rank(vectors)


def _fixed_dimensions(ell):
  """The dimensions of the sigma-fixed subspace in the degree classes
  0, 1, 2 and 3 modulo 4, from the cycles of sigma on the basis keys.

  sigma sends the key k to tau(k) times the unit i^{p_k}, with p_k the
  ad h eigenvalue of k plus 2 where the sign of tau is -1.  On a cycle of
  length L whose phases add up to P, sigma^L is i^P, so the cycle carries
  one eigenvector for each L-th root of i^P.  A loop element x t^d is
  sigma-fixed when x is an i^d-eigenvector (the variable gives the inverse
  phase), so the cycle adds 1 to class d exactly when d L = P mod 4.
  """
  dims = [0, 0, 0, 0]
  seen = set()
  for key in _all_basis_keys(ell):
    if key in seen:
      continue
    length = phase = 0
    while key not in seen:
      seen.add(key)
      sign, img = _tau_key(ell, key)
      phase += _adh_eigenvalue(ell, key) + (0 if sign > 0 else 2)
      length += 1
      key = img
    for d in range(4):
      if (d * length - phase) % 4 == 0:
        dims[d] += 1
  return dims


def _independence_break(images):
  """None if the images are linearly independent, else the index of the
  first one that depends on the images before it: the first that
  ``linalg._append_row`` does not append to one echelon of them all, in
  input order.  The images of a correct eta share no (key, degree) pair,
  so each is appended without an elimination step."""
  rows = {}
  for n, img in enumerate(images):
    if not _append_row(rows, img):
      return n
  return None


def is_tau_fixed(ell, x):
  """Whether tau(x) == x, term by term: tau sends distinct keys to distinct
  keys, so x is fixed iff each term's tau-image is a term of x."""
  for (bkey, deg), c in x.items():
    sign, img = _tau_key(ell, bkey)
    if x.get((img, deg)) != (c if (sign > 0) == (deg % 2 == 0) else -c):
      return False
  return True


def is_sigma_fixed(ell, x):
  """Whether sigma(x) == x, read off the key phases.  sigma sends c k t^d
  to sign_tau(k) i^e c tau(k) t^d with e = ad h(k) - d, and sigma^2 sends
  it to (-1)^e c k t^d, since tau fixes ad h and the sign of tau is the
  same on k and tau(k).  So a fixed x has no term with e odd, and x is
  fixed iff every e is even and x[(tau(k), d)] = sign_tau(k) (-1)^(e/2) c:
  no Gaussian product is formed, whatever the coefficients."""
  for (bkey, deg), c in x.items():
    e = _adh_eigenvalue(ell, bkey) - deg
    if e % 2:
      return False
    sign, img = _tau_key(ell, bkey)
    if x.get((img, deg)) != (c if (sign > 0) == (e % 4 == 0) else -c):
      return False
  return True


def verify_hyperspecial(ell, bound, basis=None):
  """Check the hyperspecial basis against the twisted polynomial loop
  algebra up to the given image degree bound.

  For every basis element: the element is tau-fixed, its eta-image has
  only nonnegative degrees, is sigma-fixed, and equals the published
  closed form.  Globally: the images are linearly independent and their
  count in each degree equals the dimension of the sigma-fixed subspace
  in that degree.  Returns a report dict with a ``passed`` flag and a
  witness for each mismatch.  When the images are dependent, the report
  adds ``independence_break``: the family and descriptor of the first
  image, in basis order, that does not raise the rank of those before it.

  ``basis`` is ``hyperspecial_basis(ell, bound)``, built here when not
  given.  The dimensions are counted on the cycles of sigma on the basis
  keys (_fixed_dimensions), and independence appends the images to one
  echelon in basis order (_independence_break), so no vector is ranked;
  the images of a correct eta share no (key, degree) pair, and each is
  appended without an elimination step.
  """
  if basis is None:
    basis = hyperspecial_basis(ell, bound)
  mismatches = []
  images = []
  imaged = []
  per_degree = {}
  for family, desc, elt in basis:
    if not is_tau_fixed(ell, elt):
      # eta is defined only on tau-fixed elements
      mismatches.append({"family": family, "descriptor": desc,
                         "problems": ["not-tau-fixed"]})
      continue
    problems = []
    img = _eta_k(ell, eta_c_apply(elt))
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
    imaged.append((family, desc))
    degs = degrees(img)
    if len(degs) == 1:
      per_degree[degs[0]] = per_degree.get(degs[0], 0) + 1
    else:
      mismatches.append({"family": family, "descriptor": desc,
                         "problems": ["mixed-degree-image"]})
  dependent = _independence_break(images)
  degree_counts_ok = True
  degree_counts = {}
  # the dimension reads the degree only through the phase i^d
  dims = _fixed_dimensions(ell)
  for d in range(0, bound + 1):
    expected = dims[d % 4]
    got = per_degree.get(d, 0)
    degree_counts[d] = {"expected": expected, "got": got}
    # the enumeration only guarantees full coverage for degrees whose
    # parameterization fits under the bound in every family
    if got != expected:
      degree_counts_ok = False
  report = {
      "ell": ell,
      "bound": bound,
      "basis_size": len(basis),
      "mismatches": mismatches,
      "independent": dependent is None,
      "degree_counts": degree_counts,
      "passed": not mismatches and dependent is None and degree_counts_ok,
  }
  if dependent is not None:
    family, desc = imaged[dependent]
    report["independence_break"] = {"family": family, "descriptor": desc}
  return report


def eta_bracket_check(ell, bound, trials, basis=None):
  """Randomized Lie-map check: eta([x, y]) = [eta(x), eta(y)] for pairs of
  hyperspecial basis elements (brackets from the structure constants of
  the basis keys), drawn from ``basis``, ``hyperspecial_basis(ell, bound)``
  unless given, by a fixed random.Random(0).  A pair with an element that
  is not tau-fixed fails.  Whether a pool element is tau-fixed, and its
  eta-image, are found on its first draw and reused; an element never
  drawn is not looked at."""
  import random
  if trials < 0:
    raise ValueError("trials must be nonnegative")
  if trials > maxsize:
    raise ValueError("trials %d does not fit in an index" % trials)
  if basis is None:
    basis = hyperspecial_basis(ell, bound)
  rng = random.Random(0)
  # choice over the indices draws what choice over the basis would
  pool = range(len(basis))
  images = {}

  def image(n):
    """The eta-image of basis element n, or None where eta is undefined:
    it is defined only on tau-fixed elements."""
    if n not in images:
      x = basis[n][2]
      images[n] = (_eta_k(ell, eta_c_apply(x)) if is_tau_fixed(ell, x)
                   else None)
    return images[n]

  failures = []
  for _ in range(trials):
    na = rng.choice(pool)
    nb = rng.choice(pool)
    (_, da, a), (_, db, b) = basis[na], basis[nb]
    ia, ib = image(na), image(nb)
    if ia is None or ib is None or eta_apply(ell, bracket(a, b)) != \
        bracket(ia, ib):
      failures.append((da, db))
  return failures
