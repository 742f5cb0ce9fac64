//! The UserAccount / PrinterAuth / Printer workload of Examples 3 & 5.

use gbj_engine::Database;
use gbj_types::{Result, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the printer-accounting workload.
#[derive(Debug, Clone, Copy)]
pub struct PrinterConfig {
    /// Number of users per machine.
    pub users_per_machine: usize,
    /// Number of machines (`dragon` is always one of them).
    pub machines: usize,
    /// Number of printers.
    pub printers: usize,
    /// Printer authorisations per user account.
    pub auths_per_user: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PrinterConfig {
    fn default() -> PrinterConfig {
        PrinterConfig {
            users_per_machine: 200,
            machines: 10,
            printers: 50,
            auths_per_user: 5,
            seed: 42,
        }
    }
}

impl PrinterConfig {
    /// Machine name for index `m` (`dragon` is machine 0).
    fn machine_name(m: usize) -> String {
        if m == 0 {
            "dragon".to_string()
        } else {
            format!("machine{m}")
        }
    }

    /// Build and populate the database, including the `UserInfo`
    /// aggregated view of Example 5.
    pub fn build(&self) -> Result<Database> {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE UserAccount ( \
                 UserId INTEGER, \
                 Machine VARCHAR(30), \
                 UserName VARCHAR(30) NOT NULL, \
                 PRIMARY KEY (UserId, Machine)); \
             CREATE TABLE Printer ( \
                 PNo INTEGER PRIMARY KEY, \
                 Speed INTEGER CHECK (Speed > 0), \
                 Make VARCHAR(30)); \
             CREATE TABLE PrinterAuth ( \
                 UserId INTEGER, \
                 Machine VARCHAR(30), \
                 PNo INTEGER, \
                 Usage INTEGER CHECK (Usage >= 0), \
                 PRIMARY KEY (UserId, Machine, PNo), \
                 FOREIGN KEY (UserId, Machine) REFERENCES UserAccount, \
                 FOREIGN KEY (PNo) REFERENCES Printer);",
        )?;
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut accounts = Vec::new();
        for m in 0..self.machines {
            for u in 0..self.users_per_machine {
                accounts.push(vec![
                    Value::Int(u as i64),
                    Value::str(Self::machine_name(m)),
                    Value::str(format!("user{u}")),
                ]);
            }
        }
        db.insert_rows("UserAccount", accounts)?;

        db.insert_rows(
            "Printer",
            (0..self.printers).map(|p| {
                vec![
                    Value::Int(p as i64),
                    Value::Int(rng.gen_range(1i64..=100) * 10),
                    Value::str(format!("Make{}", p % 7)),
                ]
            }),
        )?;

        let mut auths = Vec::new();
        for m in 0..self.machines {
            for u in 0..self.users_per_machine {
                // Distinct printers per user: a random starting offset
                // and stride keeps the PK unique.
                let start = rng.gen_range(0usize..self.printers);
                for a in 0..self.auths_per_user.min(self.printers) {
                    let p = (start + a) % self.printers;
                    auths.push(vec![
                        Value::Int(u as i64),
                        Value::str(Self::machine_name(m)),
                        Value::Int(p as i64),
                        Value::Int(rng.gen_range(0i64..10_000)),
                    ]);
                }
            }
        }
        db.insert_rows("PrinterAuth", auths)?;

        // Example 5's aggregated view.
        db.execute(
            "CREATE VIEW UserInfo (UserId, Machine, TotUsage, MaxSpeed, MinSpeed) AS \
             SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed) \
             FROM PrinterAuth A, Printer P \
             WHERE A.PNo = P.PNo \
             GROUP BY A.UserId, A.Machine",
        )?;
        Ok(db)
    }

    /// Example 3's query: per dragon user, total usage and printer
    /// speed extremes.
    #[must_use]
    pub fn example3_query(&self) -> &'static str {
        "SELECT U.UserId, U.UserName, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed) \
         FROM UserAccount U, PrinterAuth A, Printer P \
         WHERE U.UserId = A.UserId AND U.Machine = A.Machine \
           AND A.PNo = P.PNo AND U.Machine = 'dragon' \
         GROUP BY U.UserId, U.UserName"
    }

    /// Example 5's query over the aggregated view.
    #[must_use]
    pub fn example5_query(&self) -> &'static str {
        "SELECT I.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed \
         FROM UserInfo I, UserAccount U \
         WHERE I.UserId = U.UserId AND I.Machine = U.Machine \
           AND U.Machine = 'dragon'"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_engine::{PlanChoice, PushdownPolicy};

    fn small() -> PrinterConfig {
        PrinterConfig {
            users_per_machine: 20,
            machines: 3,
            printers: 10,
            auths_per_user: 3,
            seed: 11,
        }
    }

    #[test]
    fn builds_consistent_cardinalities() {
        let cfg = small();
        let db = cfg.build().unwrap();
        assert_eq!(db.storage().table_data("UserAccount").unwrap().len(), 60);
        assert_eq!(db.storage().table_data("Printer").unwrap().len(), 10);
        assert_eq!(db.storage().table_data("PrinterAuth").unwrap().len(), 180);
    }

    #[test]
    fn example3_transforms_and_matches_lazy() {
        let cfg = small();
        let mut db = cfg.build().unwrap();
        let report = db.plan_query(cfg.example3_query()).unwrap();
        // The paper's TestFD run answers YES for this query.
        assert!(report.testfd.is_some());
        assert!(report.alternative.is_some());

        db.options_mut().policy = PushdownPolicy::Always;
        let eager = db.query(cfg.example3_query()).unwrap();
        assert_eq!(
            report
                .partition
                .as_deref()
                .map(|p| p.contains("R1 = {A, P}")),
            Some(true)
        );
        db.options_mut().policy = PushdownPolicy::Never;
        let lazy = db.query(cfg.example3_query()).unwrap();
        assert!(eager.multiset_eq(&lazy));
        assert_eq!(lazy.len(), 20, "one row per dragon user");
    }

    #[test]
    fn example5_view_query_equals_example3() {
        let cfg = small();
        let db = cfg.build().unwrap();
        let via_view = db.query(cfg.example5_query()).unwrap();
        let direct = db.query(cfg.example3_query()).unwrap();
        assert!(via_view.multiset_eq(&direct), "Section 8's equivalence");
        // The engine recognises the reverse transformation.
        let report = db.plan_query(cfg.example5_query()).unwrap();
        assert!(report.testfd.is_some());
        assert!(matches!(
            report.choice,
            PlanChoice::Unfolded | PlanChoice::Eager
        ));
    }
}
