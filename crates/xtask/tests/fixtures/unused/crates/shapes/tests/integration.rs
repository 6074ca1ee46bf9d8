#[test]
fn integration() {
    assert_eq!(shapes::only_integration_tested(), 2);
}
