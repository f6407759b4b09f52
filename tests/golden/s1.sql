-- Contractor sites: a certain key on a NOT NULL id, and a certain FD
-- whose LHS column url may hold NULL (weak similarity: NULL is
-- similar to every value).
CREATE TABLE site (
  id TEXT NOT NULL,
  city TEXT,
  url TEXT,
  rgn TEXT,
  CERTAIN KEY (id),
  CERTAIN FD (city, url -> rgn)
);
INSERT INTO site VALUES ('1', 'Dallas', 'a.gov', 'R4'),
  ('2', 'Austin', NULL, 'R2'), ('3', 'Houston', 'c.gov', NULL);
BEGIN;
INSERT INTO site VALUES ('4', 'Dallas', 'd.gov', NULL);
SELECT * FROM site WHERE city = 'Dallas';
ROLLBACK;
SELECT id, rgn FROM site WHERE city = 'Dallas' OR url = NULL;
SHOW TABLES;
DESCRIBE site;
