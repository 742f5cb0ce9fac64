-- Counterexample corpus: queries whose eager-aggregation rewrite is
-- REFUSED, plus NULL-semantics pitfalls. Every refusal must surface as
-- a stable GBJxxx diagnostic at Warning/Info severity — refusing is
-- the *correct* outcome, so `gbj-lint` still exits 0 over this file
-- (tests/analyzer_negative.rs pins the exact codes).

-- Grouping by a non-key of R2 (the paper's canonical invalid case):
-- GA1+ = {E.DeptID} is not derivable from {D.Name} — TestFD Step 4h
-- fails FD1 → GBJ202.
CREATE TABLE Department (
    DeptID INTEGER PRIMARY KEY,
    Name VARCHAR(30) NOT NULL);
CREATE TABLE Employee (
    EmpID INTEGER PRIMARY KEY,
    DeptID INTEGER NOT NULL REFERENCES Department);

SELECT D.Name, COUNT(E.EmpID)
FROM Employee E, Department D
WHERE E.DeptID = D.DeptID
GROUP BY D.Name;

-- A keyless R2: GA1+ is derivable through the join equality, but no
-- candidate key of KeylessDept exists, so FD2's Step 4d key check
-- fails → GBJ203.
CREATE TABLE KeylessDept (DeptID INTEGER, Name VARCHAR(30));
CREATE TABLE Worker (WorkerID INTEGER PRIMARY KEY, DeptID INTEGER NOT NULL);

SELECT K.DeptID, COUNT(W.WorkerID)
FROM Worker W, KeylessDept K
WHERE W.DeptID = K.DeptID
GROUP BY K.DeptID;

-- Degenerate Main-Theorem case: a Cartesian product grouped by R2's
-- key leaves GA1+ = ∅ — structurally inapplicable → GBJ206.
CREATE TABLE L (a INTEGER PRIMARY KEY, v INTEGER NOT NULL);
CREATE TABLE R (b INTEGER PRIMARY KEY, w INTEGER NOT NULL);

SELECT R.b, SUM(L.v) FROM L, R GROUP BY R.b;

-- A nullable UNIQUE is no key: SQL's UNIQUE admits any number of rows
-- with a NULL U, and those rows agree under =ⁿ while their RowIDs
-- differ. Without it the closure of {UDim.U} reaches neither a key of
-- UDim nor GA1+ = {UFact.DId}; TestFD reports Step 4h → GBJ202.
CREATE TABLE UDim (DId INTEGER, U INTEGER, UNIQUE (U));
CREATE TABLE UFact (FId INTEGER PRIMARY KEY, DId INTEGER, V INTEGER);

SELECT UDim.U, SUM(UFact.V)
FROM UFact, UDim
WHERE UFact.DId = UDim.DId
GROUP BY UDim.U;

-- The same nullable UNIQUE through §8: a view grouping UFact by DId,
-- joined with UDim on DId. Unfolding it into one grouped join needs FD2,
-- a key of UDim, and UNIQUE (U) over a nullable U is none, so TestFD
-- refuses (Step 4d → GBJ203) and the view runs as written.
CREATE VIEW UFactSums (DId, S) AS
SELECT UFact.DId, SUM(UFact.V) FROM UFact GROUP BY UFact.DId;

SELECT UDim.U, UFactSums.S
FROM UFactSums, UDim
WHERE UFactSums.DId = UDim.DId;

-- A CHECK on a nullable column is no WHERE conjunct: CHECK (G = 1)
-- admits a row with G NULL, on which it is unknown. Without it, the
-- disjunct CDim.Y = 3 leaves GA1+ = {G} underivable (Step 4h) → GBJ202,
-- whether G's CHECK is a column CHECK, a domain's, or an assertion.
CREATE TABLE CDim (DId INTEGER PRIMARY KEY, X INTEGER, Y INTEGER);
CREATE TABLE CFact (FId INTEGER PRIMARY KEY, G INTEGER CHECK (G = 1), V INTEGER);

SELECT CDim.DId, SUM(CFact.V)
FROM CFact, CDim
WHERE CFact.G = CDim.X OR CDim.Y = 3
GROUP BY CDim.DId;

CREATE DOMAIN One INTEGER CHECK (VALUE = 1);
CREATE TABLE DFact (FId INTEGER PRIMARY KEY, G One, V INTEGER);

SELECT CDim.DId, SUM(DFact.V)
FROM DFact, CDim
WHERE DFact.G = CDim.X OR CDim.Y = 3
GROUP BY CDim.DId;

CREATE TABLE AFact (FId INTEGER PRIMARY KEY, G INTEGER, V INTEGER);
CREATE ASSERTION afact_g_one CHECK (AFact.G = 1);

SELECT CDim.DId, SUM(AFact.V)
FROM AFact, CDim
WHERE AFact.G = CDim.X OR CDim.Y = 3
GROUP BY CDim.DId;

-- NULL-semantics pitfalls (§3: ⌊P⌋ / ⌈P⌉ vs naive 2VL):
-- `= NULL` is never true under 3VL → GBJ301; `<>` and `NOT` over a
-- nullable column diverge from their 2VL readings → GBJ303 / GBJ302.
CREATE TABLE Account (Id INTEGER PRIMARY KEY, RegionCode INTEGER);

SELECT A.Id FROM Account A WHERE A.RegionCode = NULL;

SELECT A.Id FROM Account A WHERE A.RegionCode <> 7;
