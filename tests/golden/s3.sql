CREATE TABLE site (id TEXT NOT NULL, city TEXT, CERTAIN KEY (id));
INSERT INTO site VALUES ('1', 'Dallas'), ('1', 'Austin');
SELECT * FROM site;
