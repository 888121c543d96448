//! Integration tests for the end-to-end `PrivateDatabase` facade. Answers
//! come from sessions, tested in `service_session.rs`.

use r2t::system::PrivateDatabase;

fn db() -> PrivateDatabase {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    PrivateDatabase::new(schema, r2t::tpch::generate(0.08, 0.3, 3)).expect("valid instance")
}

const ORDERS_SQL: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";

#[test]
fn explain_reports_lineage() {
    let db = db();
    let text = db.explain(ORDERS_SQL).expect("explain");
    assert!(text.contains("join results"));
    assert!(text.contains("max tuple sensitivity"));
}

#[test]
fn explain_names_the_max_flow_kernel_for_select_distinct() {
    let db = db();
    let sql = "SELECT DISTINCT customer.ck FROM customer, orders, lineitem \
               WHERE orders.o_ck = customer.ck AND lineitem.l_ok = orders.ok \
               AND lineitem.returnflag = 'R'";
    let text = db.explain(sql).expect("explain");
    assert!(text.contains("projection: true"), "{text}");
    assert!(text.ends_with("LP kernel = max-flow"), "{text}");
}

#[test]
fn explain_names_the_closed_form_kernel_for_count() {
    let text = db().explain(ORDERS_SQL).expect("explain");
    assert!(text.ends_with("LP kernel = closed-form"), "{text}");
}

#[test]
fn invalid_instance_rejected() {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    let mut bad = r2t::engine::Instance::new();
    bad.insert(
        "orders",
        vec![r2t::engine::Value::Int(1), r2t::engine::Value::Int(999), r2t::engine::Value::Int(0)],
    );
    assert!(PrivateDatabase::new(schema, bad).is_err());
}
