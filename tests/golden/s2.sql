INSERT INTO site VALUES ('5', 'Dallas', NULL, 'R9');
SELECT * FROM site WHERE rgn <> 'R4';
