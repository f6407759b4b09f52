-- Natural joins in the shell: ⊥ and duplicates in the join columns,
-- join values present on one side only, and WHEREs on a join column,
-- on one side, and across both sides.
CREATE TABLE emp (
  id TEXT NOT NULL,
  dept TEXT,
  name TEXT,
  CERTAIN KEY (id)
);
CREATE TABLE dept (
  dept TEXT,
  floor TEXT
);
CREATE TABLE site (
  floor TEXT,
  wing TEXT
);
INSERT INTO emp VALUES ('1', '1', 'ann'), ('2', '1', 'bob'),
  ('3', NULL, 'cy'), ('4', '2', 'dee'), ('5', '9', 'eve'),
  ('6', NULL, 'fay');
INSERT INTO dept VALUES ('1', '1'), ('1', '2'), (NULL, '0'),
  ('2', '1'), ('3', '3'), (NULL, NULL);
INSERT INTO site VALUES ('1', 'east'), ('2', 'west'), ('0', NULL),
  ('1', 'north'), (NULL, 'annex');
SELECT * FROM emp NATURAL JOIN dept WHERE dept = '1';
SELECT * FROM emp NATURAL JOIN dept WHERE dept = NULL;
SELECT * FROM emp NATURAL JOIN dept WHERE dept <> '1' AND floor IN ('1', NULL);
SELECT * FROM emp NATURAL JOIN dept WHERE name >= 'bob' AND name < 'fay';
SELECT * FROM emp NATURAL JOIN dept WHERE floor = '2' OR name = 'cy';
SELECT name, wing, floor FROM emp NATURAL JOIN dept NATURAL JOIN site WHERE wing <> 'east' AND dept BETWEEN '1' AND '2';
SELECT dept, wing FROM dept NATURAL JOIN site WHERE floor = NULL OR wing = 'east';
SELECT * FROM emp NATURAL JOIN emp WHERE dept = NULL OR id = '4';
SELECT * FROM emp NATURAL JOIN dept WHERE salary = '1';
SELECT id, salary FROM emp NATURAL JOIN dept WHERE dept = '1';
BEGIN;
INSERT INTO dept VALUES ('9', '7');
SELECT * FROM emp NATURAL JOIN dept WHERE floor = '7' OR dept = '2';
ROLLBACK;
SELECT * FROM emp NATURAL JOIN dept WHERE floor = '7' OR dept = '2';
