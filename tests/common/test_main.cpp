/**
 * @file
 * main() of every gtest binary: gtest_main's, with death tests in the
 * "threadsafe" style.
 *
 * The default "fast" style fork()s the death-test child from the
 * running binary. Once an earlier test has started the host thread
 * pool (any large cache install or parallel op does), that child
 * inherits the pool's state but none of its worker threads, and a
 * GNN_FATAL exit() there tears down threads that do not exist: the
 * child dies with SIGSEGV instead of the expected exit code. The
 * threadsafe style re-executes the binary for each death test, so the
 * child runs only that test. A --gtest_death_test_style flag on the
 * command line still overrides this default.
 */

#include <gtest/gtest.h>

int
main(int argc, char **argv)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
